#include "ppds/crypto/group.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ppds::crypto {
namespace {

TEST(DhGroup, ParametersAreSafePrimeShaped) {
  const DhGroup g(GroupId::kModp1024);
  EXPECT_EQ(g.p(), g.q() * 2 + 1);
  EXPECT_EQ(g.element_bytes(), 128u);
  // g = 4 is a quadratic residue: g^q == 1 (mod p).
  EXPECT_EQ(g.pow(g.g(), g.q()), mpz_class(1));
}

TEST(DhGroup, AllThreeGroupsConstruct) {
  EXPECT_EQ(DhGroup(GroupId::kModp1024).element_bytes(), 128u);
  EXPECT_EQ(DhGroup(GroupId::kModp1536).element_bytes(), 192u);
  EXPECT_EQ(DhGroup(GroupId::kModp2048).element_bytes(), 256u);
}

TEST(DhGroup, DiffieHellmanAgreement) {
  const DhGroup g(GroupId::kModp1024);
  Rng rng(1);
  const mpz_class a = g.random_exponent(rng);
  const mpz_class b = g.random_exponent(rng);
  EXPECT_EQ(g.pow(g.pow_g(a), b), g.pow(g.pow_g(b), a));
}

TEST(DhGroup, InvertIsInverse) {
  const DhGroup g(GroupId::kModp1024);
  Rng rng(2);
  const mpz_class x = g.random_element(rng);
  EXPECT_EQ(g.mul(x, g.invert(x)), mpz_class(1));
}

TEST(DhGroup, SerializeRoundTrip) {
  const DhGroup g(GroupId::kModp1024);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const mpz_class x = g.random_element(rng);
    const Bytes bytes = g.serialize(x);
    EXPECT_EQ(bytes.size(), g.element_bytes());
    EXPECT_EQ(g.deserialize(bytes), x);
  }
}

TEST(DhGroup, SerializeSmallValueIsPadded) {
  const DhGroup g(GroupId::kModp1024);
  const Bytes bytes = g.serialize(mpz_class(5));
  EXPECT_EQ(bytes.size(), g.element_bytes());
  EXPECT_EQ(bytes[g.element_bytes() - 1], 5);
  EXPECT_EQ(bytes[0], 0);
}

TEST(DhGroup, DeserializeRejectsBadLength) {
  const DhGroup g(GroupId::kModp1024);
  EXPECT_THROW(g.deserialize(Bytes(10, 1)), CryptoError);
}

TEST(DhGroup, DeserializeRejectsOutOfRange) {
  const DhGroup g(GroupId::kModp1024);
  // All-0xff exceeds p (p starts with 0xFFFFFFFFFFFFFFFFC9...).
  EXPECT_THROW(g.deserialize(Bytes(g.element_bytes(), 0xff)), CryptoError);
  // Zero is not a group element either.
  EXPECT_THROW(g.deserialize(Bytes(g.element_bytes(), 0x00)), CryptoError);
}

TEST(DhGroup, RandomExponentInRange) {
  const DhGroup g(GroupId::kModp1024);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const mpz_class e = g.random_exponent(rng);
    EXPECT_GE(e, 1);
    EXPECT_LT(e, g.q());
  }
}

TEST(DhGroup, HashToKeyDependsOnElementAndTag) {
  const DhGroup g(GroupId::kModp1024);
  Rng rng(5);
  const mpz_class x = g.random_element(rng);
  const mpz_class y = g.random_element(rng);
  EXPECT_EQ(g.hash_to_key(x, 0), g.hash_to_key(x, 0));
  EXPECT_NE(g.hash_to_key(x, 0), g.hash_to_key(x, 1));
  EXPECT_NE(g.hash_to_key(x, 0), g.hash_to_key(y, 0));
}

TEST(FixedBaseTable, MatchesFullExponentiationAllGroups) {
  for (GroupId id :
       {GroupId::kModp1024, GroupId::kModp1536, GroupId::kModp2048}) {
    const DhGroup g(id);
    Rng rng(7);
    for (int i = 0; i < 8; ++i) {
      const mpz_class e = g.random_exponent(rng);
      EXPECT_EQ(g.pow_g(e), g.pow(g.g(), e));  // table vs full mpz_powm
    }
  }
}

TEST(FixedBaseTable, EdgeExponents) {
  const DhGroup g(GroupId::kModp1024);
  EXPECT_EQ(g.pow_g(mpz_class(0)), mpz_class(1));
  EXPECT_EQ(g.pow_g(mpz_class(1)), g.g());
  const mpz_class q_minus_1 = g.q() - 1;
  EXPECT_EQ(g.pow_g(q_minus_1), g.pow(g.g(), q_minus_1));
}

TEST(FixedBaseTable, MakeTableServesArbitraryBase) {
  const DhGroup g(GroupId::kModp1024);
  Rng rng(8);
  const mpz_class base = g.random_element(rng);
  const auto table = g.make_table(base);
  ASSERT_NE(table, nullptr);
  for (int i = 0; i < 5; ++i) {
    const mpz_class e = g.random_exponent(rng);
    EXPECT_EQ(g.pow_with(table.get(), base, e), g.pow(base, e));
  }
}

TEST(FixedBaseTable, OutOfRangeExponentFallsBackToFullPow) {
  const DhGroup g(GroupId::kModp1024);
  // Wider than the table's exponent range (~1024 bits): must still be
  // correct via the mpz_powm fallback.
  const mpz_class wide = g.p() * g.p() + 3;
  EXPECT_EQ(g.pow_g(wide), g.pow(g.g(), wide));
}

TEST(ExpCounters, DistinguishFullAndFixedBase) {
  const DhGroup g(GroupId::kModp1024);
  (void)g.pow_g(mpz_class(2));  // force the lazy table build
  reset_exp_counters();
  (void)g.pow_g(mpz_class(12345));
  (void)g.pow(g.g(), mpz_class(12345));
  const ExpCounters after = exp_counters();
  EXPECT_EQ(after.fixed_base, 1u);
  EXPECT_EQ(after.full, 1u);
}

TEST(FixedBaseTable, ConcurrentFirstUseIsSafe) {
  // Exercises the std::call_once lazy build from multiple threads (the tsan
  // preset turns any race here into a failure).
  const DhGroup g(GroupId::kModp1024);
  Rng rng(9);
  constexpr int kThreads = 4;
  std::vector<mpz_class> exponents;
  std::vector<mpz_class> expected;
  for (int i = 0; i < kThreads; ++i) {
    exponents.push_back(g.random_exponent(rng));
    expected.push_back(g.pow(g.g(), exponents.back()));  // never the table
  }
  std::vector<mpz_class> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { results[static_cast<std::size_t>(i)] = g.pow_g(exponents[static_cast<std::size_t>(i)]); });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)]);
  }
}

TEST(DhGroup, MultiExpMatchesProductOfPows) {
  const DhGroup g(GroupId::kModp1024);
  Rng rng(11);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{8}}) {
    std::vector<mpz_class> bases;
    std::vector<mpz_class> exps;
    mpz_class expected = 1;
    for (std::size_t i = 0; i < n; ++i) {
      bases.push_back(g.random_element(rng));
      exps.push_back(g.random_exponent(rng));
      expected = g.mul(expected, g.pow(bases.back(), exps.back()));
    }
    EXPECT_EQ(g.multi_exp(bases, exps), expected) << "n=" << n;
  }
}

TEST(DhGroup, MultiExpPippengerPathMatches) {
  const DhGroup g(GroupId::kModp1024);
  Rng rng(12);
  const std::size_t n = DhGroup::kPippengerThreshold + 9;
  std::vector<mpz_class> bases;
  std::vector<mpz_class> exps;
  mpz_class expected = 1;
  for (std::size_t i = 0; i < n; ++i) {
    bases.push_back(g.random_element(rng));
    exps.push_back(g.random_exponent(rng));
    expected = g.mul(expected, g.pow(bases.back(), exps.back()));
  }
  EXPECT_EQ(g.multi_exp(bases, exps), expected);
}

TEST(DhGroup, MultiExpServesGeneratorBasesFromTable) {
  const DhGroup g(GroupId::kModp1024);
  Rng rng(13);
  const mpz_class b = g.random_element(rng);
  const mpz_class e1 = g.random_exponent(rng);
  const mpz_class e2 = g.random_exponent(rng);
  const std::vector<mpz_class> bases = {g.g(), b, g.g()};
  const std::vector<mpz_class> exps = {e1, e2, e1};
  const mpz_class expected = g.mul(
      g.mul(g.pow_g(e1), g.pow(b, e2)), g.pow_g(e1));

  reset_exp_counters();
  const mpz_class got = g.multi_exp(bases, exps);
  const ExpCounters after = exp_counters();
  EXPECT_EQ(got, expected);
  EXPECT_EQ(after.multi_exp_batches, 1u);
  EXPECT_EQ(after.multi_exp_bases, 3u);
  // The generator bases ride the window table, not full exponentiations.
  EXPECT_EQ(after.full, 0u);
  EXPECT_EQ(after.fixed_base, 2u);
}

TEST(DhGroup, MultiExpEdgeCases) {
  const DhGroup g(GroupId::kModp1024);
  Rng rng(14);
  const mpz_class b = g.random_element(rng);
  // Empty batch is the empty product.
  EXPECT_EQ(g.multi_exp({}, {}), mpz_class(1));
  // Zero exponents contribute 1.
  const std::vector<mpz_class> bases = {b, b};
  const std::vector<mpz_class> exps = {mpz_class(0), mpz_class(5)};
  EXPECT_EQ(g.multi_exp(bases, exps), g.pow(b, mpz_class(5)));
  // Size mismatch throws.
  const std::vector<mpz_class> one = {b};
  EXPECT_THROW((void)g.multi_exp(one, exps), InvalidArgument);
}

TEST(DhGroup, BatchInvertMatchesInvert) {
  const DhGroup g(GroupId::kModp1024);
  Rng rng(15);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                        std::size_t{33}}) {
    std::vector<mpz_class> xs;
    std::vector<mpz_class> expected;
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(g.random_element(rng));
      expected.push_back(g.invert(xs.back()));
    }
    reset_exp_counters();
    g.batch_invert(xs);
    EXPECT_EQ(xs, expected) << "n=" << n;
    // The whole batch costs no exponentiations at all.
    EXPECT_EQ(exp_counters().full, 0u);
  }
}

TEST(DhGroup, BatchInvertRejectsZero) {
  const DhGroup g(GroupId::kModp1024);
  std::vector<mpz_class> xs = {mpz_class(3), mpz_class(0), mpz_class(5)};
  EXPECT_THROW(g.batch_invert(xs), CryptoError);
}

TEST(SharedGroup, ReturnsOneInstancePerGroupId) {
  EXPECT_EQ(&shared_group(GroupId::kModp1024),
            &shared_group(GroupId::kModp1024));
  EXPECT_NE(&shared_group(GroupId::kModp1024),
            &shared_group(GroupId::kModp1536));
  EXPECT_EQ(shared_group(GroupId::kModp2048).element_bytes(), 256u);
}

}  // namespace
}  // namespace ppds::crypto
