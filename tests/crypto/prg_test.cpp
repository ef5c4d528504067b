#include "ppds/crypto/prg.hpp"

#include <gtest/gtest.h>

namespace ppds::crypto {
namespace {

Digest seed_of(std::uint8_t fill) {
  Digest d;
  d.fill(fill);
  return d;
}

TEST(Prg, DeterministicForSameSeed) {
  Prg a(seed_of(1)), b(seed_of(1));
  EXPECT_EQ(a.next(100), b.next(100));
}

TEST(Prg, DifferentSeedsDiffer) {
  Prg a(seed_of(1)), b(seed_of(2));
  EXPECT_NE(a.next(32), b.next(32));
}

TEST(Prg, ChunkingDoesNotChangeStream) {
  Prg a(seed_of(3)), b(seed_of(3));
  Bytes whole = a.next(100);
  Bytes parts;
  for (std::size_t n : {1u, 31u, 32u, 36u}) {
    const Bytes chunk = b.next(n);
    parts.insert(parts.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(whole, parts);
}

TEST(Prg, StreamLooksBalanced) {
  // Crude randomness sanity: bit balance within 1%.
  Prg a(seed_of(6));
  const Bytes stream = a.next(1 << 16);
  std::size_t ones = 0;
  for (std::uint8_t byte : stream) ones += __builtin_popcount(byte);
  const double frac = static_cast<double>(ones) / (stream.size() * 8.0);
  EXPECT_NEAR(frac, 0.5, 0.01);
}

TEST(Prg, NextU64Differs) {
  Prg a(seed_of(7));
  EXPECT_NE(a.next_u64(), a.next_u64());
}

}  // namespace
}  // namespace ppds::crypto
