#pragma once

#include <cstdint>

#include "ppds/common/error.hpp"

/// \file m61.hpp
/// Arithmetic in the prime field F_p with p = 2^61 - 1 (a Mersenne prime).
///
/// This is the coefficient field of the *exact* OMPE backend: the paper's
/// protocol is described over the reals, but the original OMPE construction
/// (Tassa et al.) lives in a finite field, and floating-point interpolation
/// at degree q can lose the sign of d(t) for near-boundary samples. The
/// exact backend embeds fixed-point reals into F_p (negatives as p - |v|)
/// and recovers sign by comparing against p/2.
///
/// Mersenne reduction keeps multiplication branch-free and fast on one core.

namespace ppds::field {

/// Element of F_{2^61 - 1}. Value-semantic; all operations are total.
class M61 {
 public:
  static constexpr std::uint64_t kP = (std::uint64_t{1} << 61) - 1;

  constexpr M61() = default;

  /// From an unsigned residue, reduced mod p with the branch-free Mersenne
  /// fold: v = hi * 2^61 + lo == hi + lo (mod 2^61 - 1). The folded sum is
  /// at most kP + 7, so a single conditional subtract canonicalizes it.
  constexpr explicit M61(std::uint64_t v) : v_((v & kP) + (v >> 61)) {
    if (v_ >= kP) v_ -= kP;
  }

  /// Embeds a signed integer: negatives map to p - |v|.
  static M61 from_signed(std::int64_t v) {
    if (v >= 0) return M61(static_cast<std::uint64_t>(v));
    const std::uint64_t mag = static_cast<std::uint64_t>(-(v + 1)) + 1;
    return M61(0) - M61(mag);
  }

  /// Interprets the residue as signed: values > p/2 are negative.
  std::int64_t to_signed() const {
    if (v_ > kP / 2) return -static_cast<std::int64_t>(kP - v_);
    return static_cast<std::int64_t>(v_);
  }

  std::uint64_t value() const { return v_; }

  friend M61 operator+(M61 a, M61 b) {
    std::uint64_t s = a.v_ + b.v_;
    if (s >= kP) s -= kP;
    M61 out;
    out.v_ = s;
    return out;
  }

  friend M61 operator-(M61 a, M61 b) {
    std::uint64_t s = a.v_ + kP - b.v_;
    if (s >= kP) s -= kP;
    M61 out;
    out.v_ = s;
    return out;
  }

  friend M61 operator*(M61 a, M61 b) {
    __extension__ using u128 = unsigned __int128;
    const u128 prod = static_cast<u128>(a.v_) * b.v_;
    // Mersenne reduction: x = hi * 2^61 + lo == hi + lo (mod 2^61 - 1).
    std::uint64_t lo = static_cast<std::uint64_t>(prod) & kP;
    std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
    std::uint64_t s = lo + hi;
    if (s >= kP) s -= kP;
    M61 out;
    out.v_ = s;
    return out;
  }

  friend M61 operator/(M61 a, M61 b) { return a * b.inverse(); }

  friend bool operator==(M61 a, M61 b) { return a.v_ == b.v_; }
  friend bool operator!=(M61 a, M61 b) { return a.v_ != b.v_; }

  /// Modular exponentiation by squaring.
  M61 pow(std::uint64_t e) const {
    M61 base = *this;
    M61 acc;
    acc.v_ = 1;
    while (e != 0) {
      if (e & 1) acc = acc * base;
      base = base * base;
      e >>= 1;
    }
    return acc;
  }

  /// Multiplicative inverse via Fermat (p is prime). Throws on zero.
  M61 inverse() const {
    if (v_ == 0) throw InvalidArgument("M61: inverse of zero");
    return pow(kP - 2);
  }

  bool is_zero() const { return v_ == 0; }

 private:
  std::uint64_t v_ = 0;
};

}  // namespace ppds::field
