#include "ppds/field/m61.hpp"

#include <gtest/gtest.h>

#include "ppds/common/rng.hpp"

namespace ppds::field {
namespace {

M61 random_m61(Rng& rng) {
  for (;;) {
    const std::uint64_t v = rng() >> 3;
    if (v < M61::kP) return M61(v);
  }
}

TEST(M61, ConstructionReduces) {
  EXPECT_EQ(M61(M61::kP).value(), 0u);
  EXPECT_EQ(M61(M61::kP + 5).value(), 5u);
  EXPECT_EQ(M61(7).value(), 7u);
}

TEST(M61, AdditionWraps) {
  const M61 a(M61::kP - 1);
  EXPECT_EQ((a + M61(1)).value(), 0u);
  EXPECT_EQ((a + M61(3)).value(), 2u);
}

TEST(M61, SubtractionWraps) {
  EXPECT_EQ((M61(2) - M61(5)).value(), M61::kP - 3);
  EXPECT_EQ((M61(5) - M61(5)).value(), 0u);
}

TEST(M61, MultiplicationKnownValues) {
  EXPECT_EQ((M61(3) * M61(4)).value(), 12u);
  // (p-1)^2 = p^2 - 2p + 1 == 1 (mod p)
  const M61 pm1(M61::kP - 1);
  EXPECT_EQ((pm1 * pm1).value(), 1u);
}

TEST(M61, FieldAxiomsOnRandomElements) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const M61 a = random_m61(rng), b = random_m61(rng),
              c = random_m61(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, M61(0));
  }
}

TEST(M61, InverseIsCorrect) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    M61 a = random_m61(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ((a * a.inverse()).value(), 1u);
    EXPECT_EQ((a / a).value(), 1u);
  }
}

TEST(M61, InverseOfZeroThrows) {
  EXPECT_THROW(M61(0).inverse(), InvalidArgument);
}

TEST(M61, PowMatchesRepeatedMultiply) {
  const M61 base(123456789);
  M61 acc(1);
  for (unsigned e = 0; e < 16; ++e) {
    EXPECT_EQ(base.pow(e), acc);
    acc = acc * base;
  }
}

TEST(M61, FermatLittleTheorem) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const M61 a = random_m61(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a.pow(M61::kP - 1).value(), 1u);
  }
}

TEST(M61, SignedEmbeddingRoundTrip) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{123456}, std::int64_t{-987654321},
                         std::int64_t{1} << 59, -(std::int64_t{1} << 59)}) {
    EXPECT_EQ(M61::from_signed(v).to_signed(), v) << v;
  }
}

TEST(M61, SignedArithmeticMatchesIntegers) {
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t a =
        static_cast<std::int64_t>(rng.uniform_u64(0, 1u << 30)) - (1 << 29);
    const std::int64_t b =
        static_cast<std::int64_t>(rng.uniform_u64(0, 1u << 30)) - (1 << 29);
    EXPECT_EQ((M61::from_signed(a) + M61::from_signed(b)).to_signed(), a + b);
    EXPECT_EQ((M61::from_signed(a) - M61::from_signed(b)).to_signed(), a - b);
    EXPECT_EQ((M61::from_signed(a) * M61::from_signed(b)).to_signed(), a * b);
  }
}

}  // namespace
}  // namespace ppds::field
