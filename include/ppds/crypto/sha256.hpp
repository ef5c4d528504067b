#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "ppds/common/bytes.hpp"
#include "ppds/common/secret_taint.hpp"

/// \file sha256.hpp
/// SHA-256 (FIPS 180-4), implemented from scratch.
///
/// Used as the key-derivation hash of the Naor-Pinkas OT, the PRG core, and
/// the silent-OT pad derivation. Verified against NIST test vectors in
/// tests/crypto/sha256_test.cpp.

namespace ppds::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() { reset(); }
  Sha256(const Sha256&) = default;
  Sha256& operator=(const Sha256&) = default;

  /// Wipes the chaining state and the buffered message tail — when the hash
  /// keys an OT pad or the PRG, both are key material.
  ~Sha256();

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(const std::string& s) { update(as_u8_span(s)); }

  /// Finalizes and returns the digest. The object must be reset() before
  /// reuse.
  Digest finish();

 private:
  void compress(PPDS_SECRET const std::uint8_t* block);

  // Chaining state and buffered tail are key material whenever the hash
  // keys an OT pad or the PRG (taint roots for tools/lint/taint_analyzer.py).
  PPDS_SECRET std::array<std::uint32_t, 8> h_{};
  PPDS_SECRET std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
Digest sha256(std::span<const std::uint8_t> data);

/// Hash of the concatenation of several byte strings, each length-prefixed
/// (prevents ambiguity/extension games between fields).
Digest sha256_tagged(std::span<const Bytes> parts);

}  // namespace ppds::crypto
