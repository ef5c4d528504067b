#pragma once

#include <cstdint>

#include "ppds/common/bytes.hpp"
#include "ppds/common/secret_taint.hpp"
#include "ppds/crypto/sha256.hpp"

/// \file prg.hpp
/// Hash-based pseudo-random generator (SHA-256 in counter mode).
///
/// Keyed by a 32-byte seed; produces an unbounded keystream. Used to
/// expand the silent-OT GGM tree seeds (crypto/pprf.hpp) and to draw the
/// silent receiver's choice words.

namespace ppds::crypto {

/// Counter-mode PRG over SHA-256: block_i = SHA256(seed || i).
class Prg {
 public:
  explicit Prg(const Digest& seed) : seed_(seed) {}
  Prg(const Prg&) = default;
  Prg& operator=(const Prg&) = default;

  /// Wipes the seed and the buffered keystream block on destruction.
  ~Prg();

  /// Next \p n keystream bytes.
  Bytes next(std::size_t n);

  /// Uniform 64-bit word.
  std::uint64_t next_u64();

 private:
  void refill();

  PPDS_SECRET Digest seed_;
  std::uint64_t counter_ = 0;
  PPDS_SECRET Digest block_{};
  std::size_t block_pos_ = sizeof(Digest);
};

}  // namespace ppds::crypto
