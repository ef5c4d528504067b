#include "ppds/common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace ppds {
namespace {

TEST(SplitMix64, MixesSeedAndStream) {
  EXPECT_NE(splitmix64(1, 0), splitmix64(1, 1));
  EXPECT_NE(splitmix64(1, 0), splitmix64(2, 0));
  EXPECT_EQ(splitmix64(7, 3), splitmix64(7, 3));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedResetsStream) {
  Rng a(7);
  const std::uint64_t first = a();
  a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-2.5, 1.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 1.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(0.0, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformNonzeroAvoidsZeroBand) {
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(std::abs(rng.uniform_nonzero(-1.0, 1.0, 1e-2)), 1e-2);
  }
}

TEST(Rng, LogUniformPositiveIsPositiveAndBounded) {
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.log_uniform_positive(-4.0, 4.0);
    EXPECT_GT(v, 0.0);
    EXPECT_GE(v, std::exp2(-4.0) * 0.999);
    EXPECT_LE(v, std::exp2(4.0) * 1.001);
  }
}

TEST(Rng, UniformU64InclusiveRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_u64(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit in 1000 draws
}

TEST(Rng, UniformU64SingletonRange) {
  Rng rng(8);
  EXPECT_EQ(rng.uniform_u64(9, 9), 9u);
}

TEST(Rng, UniformU64RejectsEmptyRange) {
  Rng rng(9);
  EXPECT_THROW(rng.uniform_u64(5, 4), InvalidArgument);
}

TEST(Rng, NormalMomentsRoughlyGaussian) {
  Rng rng(10);
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(1.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, SampleIndicesDistinctSortedInRange) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const auto idx = rng.sample_indices(50, 12);
    ASSERT_EQ(idx.size(), 12u);
    EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
    std::set<std::size_t> unique(idx.begin(), idx.end());
    EXPECT_EQ(unique.size(), 12u);
    for (std::size_t v : idx) EXPECT_LT(v, 50u);
  }
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(12);
  const auto idx = rng.sample_indices(5, 5);
  ASSERT_EQ(idx.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(idx[i], i);
}

TEST(Rng, SampleIndicesRejectsOversample) {
  Rng rng(13);
  EXPECT_THROW(rng.sample_indices(3, 4), InvalidArgument);
}

TEST(Rng, SampleIndicesUniformCoverage) {
  // Every index should be picked roughly equally often.
  Rng rng(14);
  std::vector<int> counts(10, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (std::size_t v : rng.sample_indices(10, 3)) counts[v]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials * 0.3, trials * 0.03);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(16);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, FillBytesMatchesWordStream) {
  // fill_bytes must consume exactly one 64-bit draw per started 8-byte
  // block (the whole point: no 7/8 entropy waste), laying words out
  // little-end-first via memcpy.
  for (std::size_t len : {0UL, 1UL, 7UL, 8UL, 9UL, 16UL, 37UL}) {
    Rng filler(99), reference(99);
    std::vector<std::uint8_t> got(len, 0xAA);
    filler.fill_bytes(got);
    std::vector<std::uint8_t> expect(len);
    std::size_t i = 0;
    while (i < len) {
      const std::uint64_t word = reference();
      const std::size_t take = std::min<std::size_t>(8, len - i);
      std::memcpy(expect.data() + i, &word, take);
      i += take;
    }
    EXPECT_EQ(got, expect) << "len=" << len;
    // Both generators must have advanced identically.
    EXPECT_EQ(filler(), reference()) << "len=" << len;
  }
}

TEST(Rng, FillBytesDiffersAcrossCalls) {
  Rng rng(17);
  std::vector<std::uint8_t> a(32), b(32);
  rng.fill_bytes(a);
  rng.fill_bytes(b);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace ppds
