#pragma once

#include <gmpxx.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ppds/common/bytes.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/crypto/sha256.hpp"

/// \file group.hpp
/// Prime-order subgroup of Z_p^* used by the batched Naor-Pinkas base OTs
/// that seed the silent OT extension.
///
/// p is a safe prime (p = 2q + 1) from the standard MODP groups
/// (RFC 2409 / RFC 3526); the generator g = 4 generates the order-q subgroup
/// of quadratic residues. Exponents are sampled in [1, q). Elements are
/// serialized as fixed-width big-endian byte strings so wire sizes are
/// predictable and countable.
///
/// Exponentiation comes in two speeds:
///  * pow(base, e) — one full mpz_powm (arbitrary base);
///  * fixed-base windowed exponentiation via a precomputed FixedBaseTable —
///    the exponent is cut into w-bit windows and the result is a product of
///    ceil(bits/w) table entries, no squarings online. The table for the
///    group generator g is built lazily (thread-safe) on first pow_g; bases
///    reused across many transfers (e.g. the amortized OT's g^r) get their
///    own table via make_table().
///
/// Both paths feed global exponentiation counters (exp_counters()) so
/// benchmarks can report how many full exponentiations a protocol change
/// eliminated.

namespace ppds::crypto {

/// Named standard groups (trade security for benchmark speed explicitly).
enum class GroupId {
  kModp1024,  ///< RFC 2409 Oakley group 2 (benchmark-friendly)
  kModp1536,  ///< RFC 3526 group 5 (default)
  kModp2048,  ///< RFC 3526 group 14
};

/// Snapshot of the process-wide exponentiation counters.
struct ExpCounters {
  std::uint64_t full = 0;        ///< full mpz_powm exponentiations
  std::uint64_t fixed_base = 0;  ///< table-served exponentiations
};

/// Reads the process-wide counters (monotonic since process start or the
/// last reset). Thread-safe.
ExpCounters exp_counters();

/// Resets both counters to zero (benchmark bracketing). Thread-safe.
void reset_exp_counters();

/// Precomputed window table for one base: entry (i, j) holds
/// base^(j * 2^(w*i)) mod p, so base^e is the product over windows i of
/// entry(i, window_i(e)). Read-only after construction; safe to share
/// across threads.
class FixedBaseTable {
 public:
  /// Window width in bits. 6 trades ~3 MiB per 1536-bit table for a
  /// ~256-multiply evaluation (vs ~1536 squarings + ~300 multiplies for a
  /// full modexp).
  static constexpr unsigned kWindowBits = 6;

  FixedBaseTable(const mpz_class& base, const mpz_class& modulus,
                 std::size_t exponent_bits);

  /// base^e mod p via table lookups. \p e must be in [0, 2^exponent_bits).
  mpz_class pow(const mpz_class& e) const;

  /// Largest exponent bit width the table covers.
  std::size_t exponent_bits() const { return exponent_bits_; }

 private:
  mpz_class modulus_;
  std::size_t exponent_bits_;
  std::size_t blocks_;
  /// blocks_ * 2^w entries, row-major: entries_[i * 2^w + j].
  std::vector<mpz_class> entries_;
};

/// Multiplicative group wrapper. Logically immutable after construction
/// (the lazily built generator table is internally synchronized); cheap to
/// share by const reference between both protocol parties and across
/// concurrent sessions.
class DhGroup {
 public:
  explicit DhGroup(GroupId id = GroupId::kModp1536);

  DhGroup(const DhGroup&) = delete;
  DhGroup& operator=(const DhGroup&) = delete;

  /// Modulus byte width (all serialized elements use exactly this width).
  std::size_t element_bytes() const { return element_bytes_; }

  /// g^e mod p. Served from the lazily built generator table when e is in
  /// range; falls back to pow() otherwise.
  mpz_class pow_g(const mpz_class& e) const;

  /// b^e mod p (always a full exponentiation).
  mpz_class pow(const mpz_class& base, const mpz_class& e) const;

  /// Builds a window table for an arbitrary \p base reused across many
  /// exponentiations (e.g. the amortized OT's per-batch g^r). The build
  /// costs a handful of full exponentiations' worth of multiplies; it pays
  /// off after ~10 uses.
  std::unique_ptr<FixedBaseTable> make_table(const mpz_class& base) const;

  /// base^e through \p table when non-null and in range, else pow().
  mpz_class pow_with(const FixedBaseTable* table, const mpz_class& base,
                     const mpz_class& e) const;

  /// a*b mod p.
  mpz_class mul(const mpz_class& a, const mpz_class& b) const;

  /// a^{-1} mod p.
  mpz_class invert(const mpz_class& a) const;

  /// In-place Montgomery batch inversion: xs[i] <- xs[i]^{-1} mod p using
  /// 3(n-1) multiplications and ONE modular inversion. Throws CryptoError if
  /// any element is non-invertible (and leaves xs unspecified in that case).
  void batch_invert(std::span<mpz_class> xs) const;

  /// Uniform exponent in [1, q).
  mpz_class random_exponent(Rng& rng) const;

  /// Fixed-width big-endian serialization.
  Bytes serialize(const mpz_class& x) const;

  /// Parses and validates: must be in [1, p). Throws CryptoError otherwise.
  mpz_class deserialize(std::span<const std::uint8_t> data) const;

  /// KDF: hashes a group element together with a domain-separation tag into
  /// a 32-byte key.
  Digest hash_to_key(const mpz_class& x, std::uint64_t tag) const;

  const mpz_class& p() const { return p_; }
  const mpz_class& q() const { return q_; }
  const mpz_class& g() const { return g_; }

 private:
  const FixedBaseTable* generator_table() const;

  mpz_class p_;  ///< safe prime
  mpz_class q_;  ///< (p-1)/2, prime order of the QR subgroup
  mpz_class g_;  ///< subgroup generator
  std::size_t element_bytes_ = 0;
  /// Lazily built table for g, synchronized so the first pow_g of
  /// concurrent sessions races cleanly (tsan-verified).
  mutable std::once_flag g_table_once_;
  mutable std::unique_ptr<FixedBaseTable> g_table_;
};

/// Process-wide shared group per GroupId. Sharing one instance keeps the
/// lazily built generator table warm across sessions instead of rebuilding
/// it per OtBundle.
const DhGroup& shared_group(GroupId id);

}  // namespace ppds::crypto
