#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "ppds/field/m61.hpp"

/// \file m61xn.hpp
/// Data-parallel lanes over F_{2^61 - 1}.
///
/// `M61x8` packs eight independent field elements and provides
/// add/sub/mul/reduce/select on all lanes at once. The scalar M61 chain in
/// the OMPE sweeps is latency-bound (each Horner step waits on the previous
/// multiply); evaluating eight *points* per instruction turns that into a
/// throughput problem, which is where the field time actually goes.
///
/// Dispatch has two layers:
///   * compile time — an AVX2 kernel is compiled whenever the target allows
///     `__attribute__((target("avx2")))` (any x86-64 GCC/clang; no global
///     `-mavx2` needed), and a NEON-guarded path exists for aarch64;
///   * run time — `simd_caps()` probes the CPU once (and honours the
///     `PPDS_FORCE_SCALAR` environment variable) and every lane op branches
///     on the cached result.
/// The portable fallback executes the exact scalar M61 formulas lane by
/// lane, so all paths are bit-identical: a lane op must return the same
/// residues as eight scalar ops, which is what tests/field/m61xn_test.cpp
/// pins down and what keeps protocol transcripts independent of the ISA.
///
/// All inputs and outputs are canonical residues in [0, p). The only
/// exception is `M61x8::reduce`, the packed analogue of the `M61(uint64_t)`
/// constructor: it accepts arbitrary 64-bit lanes and folds them.

#if defined(__x86_64__) || defined(_M_X64)
#define PPDS_M61XN_HAVE_AVX2_TARGET 1
#include <immintrin.h>
#else
#define PPDS_M61XN_HAVE_AVX2_TARGET 0
#endif

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#define PPDS_M61XN_HAVE_NEON 1
#include <arm_neon.h>
#else
#define PPDS_M61XN_HAVE_NEON 0
#endif

namespace ppds::field {

/// Lane count of the packed type. Fixed at 8 so callers can chunk work the
/// same way on every ISA; narrower engines simply loop inside one op.
inline constexpr std::size_t kM61Lanes = 8;

/// Which SIMD engine the process selected, probed once and cached.
struct SimdCaps {
  bool avx2_compiled = false;  ///< AVX2 kernel exists in this binary.
  bool avx2_runtime = false;   ///< CPU reports AVX2 support.
  bool neon_compiled = false;  ///< NEON path compiled in (aarch64).
  bool forced_scalar = false;  ///< PPDS_FORCE_SCALAR=1 was set at first use.
  const char* active = "scalar";  ///< "avx2", "neon", or "scalar".
};

namespace detail {

inline SimdCaps probe_simd_caps() {
  SimdCaps caps;
#if PPDS_M61XN_HAVE_AVX2_TARGET
  caps.avx2_compiled = true;
  caps.avx2_runtime = __builtin_cpu_supports("avx2") != 0;
#endif
#if PPDS_M61XN_HAVE_NEON
  caps.neon_compiled = true;
#endif
  const char* force = std::getenv("PPDS_FORCE_SCALAR");
  caps.forced_scalar = force != nullptr && force[0] != '\0' && force[0] != '0';
  if (caps.forced_scalar) {
    caps.active = "scalar";
  } else if (caps.avx2_compiled && caps.avx2_runtime) {
    caps.active = "avx2";
  } else if (caps.neon_compiled) {
    caps.active = "neon";
  } else {
    caps.active = "scalar";
  }
  return caps;
}

}  // namespace detail

/// Cached capability probe. Thread-safe (magic static); the environment is
/// read exactly once, so flipping PPDS_FORCE_SCALAR mid-process has no
/// effect — set it before launch (as the CI forced-scalar leg does).
inline const SimdCaps& simd_caps() {
  static const SimdCaps caps = detail::probe_simd_caps();
  return caps;
}

namespace detail {

inline bool use_avx2() {
  const SimdCaps& caps = simd_caps();
  return caps.avx2_compiled && caps.avx2_runtime && !caps.forced_scalar;
}

inline bool use_neon() {
  const SimdCaps& caps = simd_caps();
  return caps.neon_compiled && !caps.forced_scalar;
}

}  // namespace detail

/// Eight packed residues of F_{2^61 - 1}. POD so hot loops can keep arrays
/// of lanes in registers; alignment matches one AVX2 vector pair.
struct alignas(64) M61x8 {
  std::uint64_t v[kM61Lanes];

  /// All lanes set to the same element.
  static M61x8 broadcast(M61 x) {
    M61x8 out;
    for (std::size_t i = 0; i < kM61Lanes; ++i) out.v[i] = x.value();
    return out;
  }

  /// All lanes zero.
  static M61x8 zero() { return broadcast(M61(0)); }

  /// Packs eight already-canonical elements.
  static M61x8 load(const M61* p) {
    M61x8 out;
    for (std::size_t i = 0; i < kM61Lanes; ++i) out.v[i] = p[i].value();
    return out;
  }

  /// Folds eight arbitrary 64-bit words into canonical residues — the
  /// packed analogue of the reducing M61(uint64_t) constructor.
  static M61x8 reduce(const std::uint64_t* raw);

  M61 lane(std::size_t i) const { return M61(v[i]); }

  void store(M61* p) const {
    for (std::size_t i = 0; i < kM61Lanes; ++i) p[i] = M61(v[i]);
  }

  /// Horizontal sum of all lanes (mod p); used to finish dot products.
  M61 hadd() const {
    M61 acc(0);
    for (std::size_t i = 0; i < kM61Lanes; ++i) acc = acc + M61(v[i]);
    return acc;
  }

  friend bool operator==(const M61x8& a, const M61x8& b) {
    bool eq = true;
    for (std::size_t i = 0; i < kM61Lanes; ++i) eq = eq && a.v[i] == b.v[i];
    return eq;
  }
};

namespace detail {

// ---------------------------------------------------------------------------
// Portable kernels: the scalar M61 formulas, lane by lane. These define the
// semantics; the vector kernels must match them bit for bit.
// ---------------------------------------------------------------------------

inline M61x8 add_portable(const M61x8& a, const M61x8& b) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; ++i) {
    std::uint64_t s = a.v[i] + b.v[i];
    if (s >= M61::kP) s -= M61::kP;
    out.v[i] = s;
  }
  return out;
}

inline M61x8 sub_portable(const M61x8& a, const M61x8& b) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; ++i) {
    std::uint64_t s = a.v[i] + M61::kP - b.v[i];
    if (s >= M61::kP) s -= M61::kP;
    out.v[i] = s;
  }
  return out;
}

inline M61x8 mul_portable(const M61x8& a, const M61x8& b) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; ++i) {
    __extension__ using u128 = unsigned __int128;
    const u128 prod = static_cast<u128>(a.v[i]) * b.v[i];
    std::uint64_t lo = static_cast<std::uint64_t>(prod) & M61::kP;
    std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
    std::uint64_t s = lo + hi;
    if (s >= M61::kP) s -= M61::kP;
    out.v[i] = s;
  }
  return out;
}

inline M61x8 reduce_portable(const std::uint64_t* raw) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; ++i) {
    std::uint64_t s = (raw[i] & M61::kP) + (raw[i] >> 61);
    if (s >= M61::kP) s -= M61::kP;
    out.v[i] = s;
  }
  return out;
}

inline M61x8 select_portable(const M61x8& mask, const M61x8& a,
                             const M61x8& b) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; ++i) {
    out.v[i] = (a.v[i] & mask.v[i]) | (b.v[i] & ~mask.v[i]);
  }
  return out;
}

inline M61x8 cmp_eq_portable(const M61x8& a, const M61x8& b) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; ++i) {
    // Branch-free equality: all-ones lane mask iff equal.
    const std::uint64_t d = a.v[i] ^ b.v[i];
    out.v[i] = d == 0 ? ~std::uint64_t{0} : 0;
  }
  return out;
}

// ---------------------------------------------------------------------------
// AVX2 kernels. Compiled with a per-function target attribute so the rest of
// the binary stays baseline x86-64; only reached when use_avx2() is true.
// ---------------------------------------------------------------------------

#if PPDS_M61XN_HAVE_AVX2_TARGET

// memcpy-based vector load/store: GCC folds these to single vmovdqu
// instructions, and they avoid the reinterpret_cast the raw intrinsics need.
__attribute__((target("avx2"))) inline __m256i load4_avx2(
    const std::uint64_t* p) {
  __m256i x;
  std::memcpy(&x, p, sizeof(x));
  return x;
}

__attribute__((target("avx2"))) inline void store4_avx2(std::uint64_t* p,
                                                        __m256i x) {
  std::memcpy(p, &x, sizeof(x));
}

__attribute__((target("avx2"))) inline __m256i m61_csub_avx2(__m256i s) {
  // Conditional subtract of p. All inputs here are < 2^62, so the signed
  // 64-bit compare against p-1 is exact (no sign wrap to worry about).
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(M61::kP));
  const __m256i pm1 =
      _mm256_set1_epi64x(static_cast<long long>(M61::kP - 1));
  const __m256i ge = _mm256_cmpgt_epi64(s, pm1);
  return _mm256_sub_epi64(s, _mm256_and_si256(ge, p));
}

__attribute__((target("avx2"))) inline __m256i m61_add_avx2(__m256i a,
                                                            __m256i b) {
  return m61_csub_avx2(_mm256_add_epi64(a, b));
}

__attribute__((target("avx2"))) inline __m256i m61_sub_avx2(__m256i a,
                                                            __m256i b) {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(M61::kP));
  return m61_csub_avx2(_mm256_sub_epi64(_mm256_add_epi64(a, p), b));
}

__attribute__((target("avx2"))) inline __m256i m61_mul_avx2(__m256i a,
                                                            __m256i b) {
  // 64x64 -> 128 via 32-bit partial products, then the Mersenne fold.
  // Operands are < 2^61, so hi32(a), hi32(b) < 2^29 and:
  //   m00 = lo(a)*lo(b)            < 2^64
  //   m01 = lo(a)*hi(b)            < 2^61
  //   m10 = hi(a)*lo(b)            < 2^61
  //   m11 = hi(a)*hi(b)            < 2^58
  //   t   = m01 + m10 + (m00>>32)  < 2^63   (exact, no wrap)
  //   lo64 = (t<<32) | lo32(m00)            exact low 64 bits of the product
  //   hi   = m11 + (t>>32)         < 2^59   exact high 64 bits
  // With 2^64 == 2^3 (mod p):
  //   r = (hi<<3) + (lo64 & p) + (lo64>>61) < 2^62   == product (mod p)
  // One more fold plus a conditional subtract canonicalizes r.
  const __m256i lo_mask = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(M61::kP));
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i m00 = _mm256_mul_epu32(a, b);
  const __m256i m01 = _mm256_mul_epu32(a, b_hi);
  const __m256i m10 = _mm256_mul_epu32(a_hi, b);
  const __m256i m11 = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i t = _mm256_add_epi64(_mm256_add_epi64(m01, m10),
                                     _mm256_srli_epi64(m00, 32));
  const __m256i lo64 =
      _mm256_or_si256(_mm256_slli_epi64(t, 32), _mm256_and_si256(m00, lo_mask));
  const __m256i hi = _mm256_add_epi64(m11, _mm256_srli_epi64(t, 32));
  __m256i r = _mm256_add_epi64(
      _mm256_slli_epi64(hi, 3),
      _mm256_add_epi64(_mm256_and_si256(lo64, p), _mm256_srli_epi64(lo64, 61)));
  r = _mm256_add_epi64(_mm256_and_si256(r, p), _mm256_srli_epi64(r, 61));
  return m61_csub_avx2(r);
}

__attribute__((target("avx2"))) inline __m256i m61_reduce_avx2(__m256i x) {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(M61::kP));
  const __m256i s =
      _mm256_add_epi64(_mm256_and_si256(x, p), _mm256_srli_epi64(x, 61));
  return m61_csub_avx2(s);
}

// --- Lazy-reduction helpers for the fused accumulation kernels ----------
//
// The accumulating kernels below defer canonicalization: values travel in a
// RELAXED range (< 2^61 + 4, congruent mod p) and only the kernel's final
// result is folded back to canonical. Residues mod p are unchanged at every
// step, so the canonical output — the only bytes anyone stores or compares
// — is bit-identical to the eager chain; the payoff is dropping one fold
// and one conditional subtract from every multiply-accumulate.

/// Single Mersenne fold: maps x < 2^63 into the relaxed range (< 2^61 + 4),
/// preserving the residue. No conditional subtract.
__attribute__((target("avx2"))) inline __m256i m61_fold_avx2(__m256i x) {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(M61::kP));
  return _mm256_add_epi64(_mm256_and_si256(x, p), _mm256_srli_epi64(x, 61));
}

/// m61_mul_avx2 without the final fold + conditional subtract: returns a
/// value < 2^62 + 2^34 congruent to a * b. Operands may be relaxed
/// (< 2^61 + 4): hi32 stays <= 2^29 + 1, so every partial-product bound in
/// m61_mul_avx2's derivation still clears its headroom (t < 2^62 + 2^34).
__attribute__((target("avx2"))) inline __m256i m61_mul_relaxed_avx2(
    __m256i a, __m256i b) {
  const __m256i lo_mask = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(M61::kP));
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i m00 = _mm256_mul_epu32(a, b);
  const __m256i m01 = _mm256_mul_epu32(a, b_hi);
  const __m256i m10 = _mm256_mul_epu32(a_hi, b);
  const __m256i m11 = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i t = _mm256_add_epi64(_mm256_add_epi64(m01, m10),
                                     _mm256_srli_epi64(m00, 32));
  const __m256i lo64 =
      _mm256_or_si256(_mm256_slli_epi64(t, 32), _mm256_and_si256(m00, lo_mask));
  const __m256i hi = _mm256_add_epi64(m11, _mm256_srli_epi64(t, 32));
  return _mm256_add_epi64(
      _mm256_slli_epi64(hi, 3),
      _mm256_add_epi64(_mm256_and_si256(lo64, p), _mm256_srli_epi64(lo64, 61)));
}

__attribute__((target("avx2"))) inline M61x8 add_avx2(const M61x8& a,
                                                      const M61x8& b) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; i += 4) {
    store4_avx2(out.v + i,
                m61_add_avx2(load4_avx2(a.v + i), load4_avx2(b.v + i)));
  }
  return out;
}

__attribute__((target("avx2"))) inline M61x8 sub_avx2(const M61x8& a,
                                                      const M61x8& b) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; i += 4) {
    store4_avx2(out.v + i,
                m61_sub_avx2(load4_avx2(a.v + i), load4_avx2(b.v + i)));
  }
  return out;
}

__attribute__((target("avx2"))) inline M61x8 mul_avx2(const M61x8& a,
                                                      const M61x8& b) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; i += 4) {
    store4_avx2(out.v + i,
                m61_mul_avx2(load4_avx2(a.v + i), load4_avx2(b.v + i)));
  }
  return out;
}

__attribute__((target("avx2"))) inline M61x8 reduce_avx2(
    const std::uint64_t* raw) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; i += 4) {
    store4_avx2(out.v + i, m61_reduce_avx2(load4_avx2(raw + i)));
  }
  return out;
}

__attribute__((target("avx2"))) inline M61x8 select_avx2(const M61x8& mask,
                                                         const M61x8& a,
                                                         const M61x8& b) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; i += 4) {
    store4_avx2(out.v + i,
                _mm256_blendv_epi8(load4_avx2(b.v + i), load4_avx2(a.v + i),
                                   load4_avx2(mask.v + i)));
  }
  return out;
}

__attribute__((target("avx2"))) inline M61x8 cmp_eq_avx2(const M61x8& a,
                                                         const M61x8& b) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; i += 4) {
    store4_avx2(out.v + i,
                _mm256_cmpeq_epi64(load4_avx2(a.v + i), load4_avx2(b.v + i)));
  }
  return out;
}

#endif  // PPDS_M61XN_HAVE_AVX2_TARGET

// ---------------------------------------------------------------------------
// NEON: 2-wide add/sub/select. aarch64 has no packed 64x64 multiply, and its
// scalar 64x64->128 multiply is a single instruction pair, so mul and reduce
// stay on the portable path there (they are already branch-free).
// ---------------------------------------------------------------------------

#if PPDS_M61XN_HAVE_NEON

inline M61x8 add_neon(const M61x8& a, const M61x8& b) {
  const uint64x2_t p = vdupq_n_u64(M61::kP);
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; i += 2) {
    const uint64x2_t s = vaddq_u64(vld1q_u64(a.v + i), vld1q_u64(b.v + i));
    const uint64x2_t ge = vcgeq_u64(s, p);
    vst1q_u64(out.v + i, vsubq_u64(s, vandq_u64(ge, p)));
  }
  return out;
}

inline M61x8 sub_neon(const M61x8& a, const M61x8& b) {
  const uint64x2_t p = vdupq_n_u64(M61::kP);
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; i += 2) {
    const uint64x2_t s =
        vsubq_u64(vaddq_u64(vld1q_u64(a.v + i), p), vld1q_u64(b.v + i));
    const uint64x2_t ge = vcgeq_u64(s, p);
    vst1q_u64(out.v + i, vsubq_u64(s, vandq_u64(ge, p)));
  }
  return out;
}

inline M61x8 select_neon(const M61x8& mask, const M61x8& a, const M61x8& b) {
  M61x8 out;
  for (std::size_t i = 0; i < kM61Lanes; i += 2) {
    vst1q_u64(out.v + i, vbslq_u64(vld1q_u64(mask.v + i), vld1q_u64(a.v + i),
                                   vld1q_u64(b.v + i)));
  }
  return out;
}

#endif  // PPDS_M61XN_HAVE_NEON

}  // namespace detail

// ---------------------------------------------------------------------------
// Public lane ops: one cached-capability branch, then the kernel.
// ---------------------------------------------------------------------------

inline M61x8 add(const M61x8& a, const M61x8& b) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (detail::use_avx2()) return detail::add_avx2(a, b);
#endif
#if PPDS_M61XN_HAVE_NEON
  if (detail::use_neon()) return detail::add_neon(a, b);
#endif
  return detail::add_portable(a, b);
}

inline M61x8 sub(const M61x8& a, const M61x8& b) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (detail::use_avx2()) return detail::sub_avx2(a, b);
#endif
#if PPDS_M61XN_HAVE_NEON
  if (detail::use_neon()) return detail::sub_neon(a, b);
#endif
  return detail::sub_portable(a, b);
}

inline M61x8 mul(const M61x8& a, const M61x8& b) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (detail::use_avx2()) return detail::mul_avx2(a, b);
#endif
  return detail::mul_portable(a, b);
}

/// Branch-free two-way select: lane i of the result is a.v[i] where
/// mask.v[i] is all-ones and b.v[i] where it is all-zero. Both arms are
/// always computed — cost is independent of the (possibly secret) mask,
/// which is what lets secret-dependent choices stay off the branch predictor.
inline M61x8 select(const M61x8& mask, const M61x8& a, const M61x8& b) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (detail::use_avx2()) return detail::select_avx2(mask, a, b);
#endif
#if PPDS_M61XN_HAVE_NEON
  if (detail::use_neon()) return detail::select_neon(mask, a, b);
#endif
  return detail::select_portable(mask, a, b);
}

/// Lane mask builder: all-ones where a.v[i] == b.v[i].
inline M61x8 cmp_eq(const M61x8& a, const M61x8& b) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (detail::use_avx2()) return detail::cmp_eq_avx2(a, b);
#endif
  return detail::cmp_eq_portable(a, b);
}

inline M61x8 M61x8::reduce(const std::uint64_t* raw) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (detail::use_avx2()) return detail::reduce_avx2(raw);
#endif
  return detail::reduce_portable(raw);
}

/// Ring operators so M61x8 drops into the templated evaluators
/// (math::MonomialDag::evaluate) exactly like scalar M61 does.
inline M61x8 operator+(const M61x8& a, const M61x8& b) { return add(a, b); }
inline M61x8 operator-(const M61x8& a, const M61x8& b) { return sub(a, b); }
inline M61x8 operator*(const M61x8& a, const M61x8& b) { return mul(a, b); }

// ---------------------------------------------------------------------------
// Fused block kernels. The per-element ops above dispatch (and cross a
// target-attribute boundary, which blocks inlining) on EVERY call, so a long
// chain of them spills the lanes through memory at each step. These kernels
// compile the whole chain per target and dispatch once per call, keeping the
// accumulators in vector registers — this is what the OMPE sweeps call.
// Lane semantics are pinned to the scalar formulas exactly like the
// per-element ops (tests/field/m61xn_test.cpp).
// ---------------------------------------------------------------------------

namespace detail {

/// Little-endian word accessors for the strided sweep kernels. On
/// little-endian hosts these must be plain memcpy — GCC does NOT reliably
/// fold the byte-wise shift/or idiom back into one move inside the
/// per-target kernels, and a 8x-unrolled byte walk per word erases the
/// whole SIMD win. The byte-wise form is kept only for big-endian hosts,
/// where it preserves the wire semantics exactly.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
inline std::uint64_t load_word_le(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

inline void store_word_le(std::uint8_t* p, std::uint64_t w) {
  std::memcpy(p, &w, sizeof(w));
}
#else
inline std::uint64_t load_word_le(const std::uint8_t* p) {
  std::uint64_t w = 0;
  for (unsigned i = 0; i < 8; ++i) w |= std::uint64_t{p[i]} << (8 * i);
  return w;
}

inline void store_word_le(std::uint8_t* p, std::uint64_t w) {
  for (unsigned i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(w >> (8 * i));
  }
}
#endif

/// Horner chain: lane l of the result is the scalar Horner evaluation of
/// the ascending-order coefficients c[0..n) at x.v[l].
inline M61x8 horner8_portable(const M61* c, std::size_t n, const M61x8& x) {
  M61x8 acc = M61x8::broadcast(c[n - 1]);
  for (std::size_t i = n - 1; i-- > 0;) {
    acc = add_portable(mul_portable(acc, x), M61x8::broadcast(c[i]));
  }
  return acc;
}

/// Dot-product chain with in-loop reduction: lane l accumulates
/// init.v[l] + sum_i w[i] * M61(z_raw[i * kM61Lanes + l]), where the raw
/// words pass through the reducing-constructor fold first — the shape of
/// the OMPE sender's linear evaluator over a transposed point block.
inline M61x8 dot8_reduce_portable(const M61x8& init, const M61* w,
                                  const std::uint64_t* z_raw, std::size_t n) {
  M61x8 acc = init;
  for (std::size_t i = 0; i < n; ++i) {
    const M61x8 z = reduce_portable(z_raw + i * kM61Lanes);
    acc = add_portable(acc, mul_portable(M61x8::broadcast(w[i]), z));
  }
  return acc;
}

/// Strided variant of the dot chain: lane l's word for term i is read
/// little-endian from buf + l * stride + 8 * i, so the kernel walks eight
/// wire records in place with no transpose pass.
inline M61x8 dot8_reduce_strided_portable(const M61x8& init, const M61* w,
                                          const std::uint8_t* buf,
                                          std::size_t stride, std::size_t n) {
  M61x8 acc = init;
  std::uint64_t raw[kM61Lanes];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      raw[l] = load_word_le(buf + l * stride + 8 * i);
    }
    const M61x8 z = reduce_portable(raw);
    acc = add_portable(acc, mul_portable(M61x8::broadcast(w[i]), z));
  }
  return acc;
}

/// Column sweep for cover-style buffers: for each of n ascending-order
/// coefficient groups c + g * deg_p1 (deg_p1 >= 1 coefficients), Horner-
/// evaluate on lanes at x and store lane l's value little-endian at
/// ptrs[l] + 8 * g. The per-lane base pointers let the caller pack eight
/// arbitrary wire records into one block; one dispatched call covers the
/// whole block.
inline void horner8_scatter_portable(const M61* c, std::size_t deg_p1,
                                     std::size_t n, const M61x8& x,
                                     std::uint8_t* const* ptrs) {
  for (std::size_t g = 0; g < n; ++g) {
    const M61x8 acc = horner8_portable(c + g * deg_p1, deg_p1, x);
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      store_word_le(ptrs[l] + 8 * g, acc.v[l]);
    }
  }
}

/// Single-point Horner over n_groups coefficient groups in the same
/// row-major layout as horner8_scatter (group g's ascending coefficients at
/// c + g * deg_p1): group g's canonical value is stored little-endian at
/// out + 8 * g. This is the TAIL companion of horner8_scatter — when the
/// point count is not a lane multiple, the leftover points lane over
/// GROUPS here (strided coefficient gathers, vector arithmetic) instead of
/// falling back to a whole scalar point sweep.
inline void horner_groups_portable(const M61* c, std::size_t deg_p1,
                                   std::size_t n_groups, M61 x,
                                   std::uint8_t* out) {
  for (std::size_t g = 0; g < n_groups; ++g) {
    const M61* cg = c + g * deg_p1;
    M61 acc = cg[deg_p1 - 1];
    for (std::size_t i = deg_p1 - 1; i-- > 0;) acc = acc * x + cg[i];
    store_word_le(out + 8 * g, acc.value());
  }
}

#if PPDS_M61XN_HAVE_AVX2_TARGET

__attribute__((target("avx2"))) inline M61x8 horner8_avx2(const M61* c,
                                                          std::size_t n,
                                                          const M61x8& x) {
  const __m256i x0 = load4_avx2(x.v);
  const __m256i x1 = load4_avx2(x.v + 4);
  __m256i a0 =
      _mm256_set1_epi64x(static_cast<long long>(c[n - 1].value()));
  __m256i a1 = a0;
  for (std::size_t i = n - 1; i-- > 0;) {
    const __m256i ci =
        _mm256_set1_epi64x(static_cast<long long>(c[i].value()));
    // Lazy step: acc stays relaxed across the chain, one fold per link.
    a0 = m61_fold_avx2(_mm256_add_epi64(m61_mul_relaxed_avx2(a0, x0), ci));
    a1 = m61_fold_avx2(_mm256_add_epi64(m61_mul_relaxed_avx2(a1, x1), ci));
  }
  M61x8 out;
  store4_avx2(out.v, m61_reduce_avx2(a0));
  store4_avx2(out.v + 4, m61_reduce_avx2(a1));
  return out;
}

__attribute__((target("avx2"))) inline M61x8 dot8_reduce_avx2(
    const M61x8& init, const M61* w, const std::uint64_t* z_raw,
    std::size_t n) {
  __m256i a0 = load4_avx2(init.v);
  __m256i a1 = load4_avx2(init.v + 4);
  for (std::size_t i = 0; i < n; ++i) {
    const __m256i wi =
        _mm256_set1_epi64x(static_cast<long long>(w[i].value()));
    const __m256i z0 = m61_reduce_avx2(load4_avx2(z_raw + i * kM61Lanes));
    const __m256i z1 = m61_reduce_avx2(load4_avx2(z_raw + i * kM61Lanes + 4));
    a0 = m61_fold_avx2(_mm256_add_epi64(a0, m61_mul_relaxed_avx2(wi, z0)));
    a1 = m61_fold_avx2(_mm256_add_epi64(a1, m61_mul_relaxed_avx2(wi, z1)));
  }
  M61x8 out;
  store4_avx2(out.v, m61_reduce_avx2(a0));
  store4_avx2(out.v + 4, m61_reduce_avx2(a1));
  return out;
}

// Strided 4-lane vector load: little-endian words gathered from four wire
// records. The scalar loads inline here (baseline callee into an avx2
// caller is fine) and GCC turns the pack into vmovq/vpinsrq pairs.
__attribute__((target("avx2"))) inline __m256i load4_strided_avx2(
    const std::uint8_t* p, std::size_t stride) {
  return _mm256_set_epi64x(
      static_cast<long long>(load_word_le(p + 3 * stride)),
      static_cast<long long>(load_word_le(p + 2 * stride)),
      static_cast<long long>(load_word_le(p + stride)),
      static_cast<long long>(load_word_le(p)));
}

__attribute__((target("avx2"))) inline M61x8 dot8_reduce_strided_avx2(
    const M61x8& init, const M61* w, const std::uint8_t* buf,
    std::size_t stride, std::size_t n) {
  // Two-way unroll with separate accumulators. Addition mod p is
  // commutative and every partial tracks the same residue, so folding the
  // odd accumulator in at the end gives bit-identical results to the scalar
  // left-to-right chain while doubling the independent dependency chains;
  // the accumulators themselves ride the lazy relaxed range.
  const std::uint8_t* hi = buf + 4 * stride;
  __m256i a0 = load4_avx2(init.v);
  __m256i a1 = load4_avx2(init.v + 4);
  __m256i b0 = _mm256_setzero_si256();
  __m256i b1 = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256i wi =
        _mm256_set1_epi64x(static_cast<long long>(w[i].value()));
    const __m256i wj =
        _mm256_set1_epi64x(static_cast<long long>(w[i + 1].value()));
    const __m256i z0 =
        m61_reduce_avx2(load4_strided_avx2(buf + 8 * i, stride));
    const __m256i z1 = m61_reduce_avx2(load4_strided_avx2(hi + 8 * i, stride));
    const __m256i y0 =
        m61_reduce_avx2(load4_strided_avx2(buf + 8 * i + 8, stride));
    const __m256i y1 =
        m61_reduce_avx2(load4_strided_avx2(hi + 8 * i + 8, stride));
    a0 = m61_fold_avx2(_mm256_add_epi64(a0, m61_mul_relaxed_avx2(wi, z0)));
    a1 = m61_fold_avx2(_mm256_add_epi64(a1, m61_mul_relaxed_avx2(wi, z1)));
    b0 = m61_fold_avx2(_mm256_add_epi64(b0, m61_mul_relaxed_avx2(wj, y0)));
    b1 = m61_fold_avx2(_mm256_add_epi64(b1, m61_mul_relaxed_avx2(wj, y1)));
  }
  // Merge stays in range: two relaxed values sum below 2^62 + 8.
  a0 = m61_fold_avx2(_mm256_add_epi64(a0, b0));
  a1 = m61_fold_avx2(_mm256_add_epi64(a1, b1));
  for (; i < n; ++i) {
    const __m256i wi =
        _mm256_set1_epi64x(static_cast<long long>(w[i].value()));
    const __m256i z0 =
        m61_reduce_avx2(load4_strided_avx2(buf + 8 * i, stride));
    const __m256i z1 = m61_reduce_avx2(load4_strided_avx2(hi + 8 * i, stride));
    a0 = m61_fold_avx2(_mm256_add_epi64(a0, m61_mul_relaxed_avx2(wi, z0)));
    a1 = m61_fold_avx2(_mm256_add_epi64(a1, m61_mul_relaxed_avx2(wi, z1)));
  }
  M61x8 out;
  store4_avx2(out.v, m61_reduce_avx2(a0));
  store4_avx2(out.v + 4, m61_reduce_avx2(a1));
  return out;
}

__attribute__((target("avx2"))) inline void horner8_scatter_avx2(
    const M61* c, std::size_t deg_p1, std::size_t n, const M61x8& x,
    std::uint8_t* const* ptrs) {
  const __m256i x0 = load4_avx2(x.v);
  const __m256i x1 = load4_avx2(x.v + 4);
  // Lazy Horner chains, two coefficient groups per iteration: a single
  // group leaves the serial mul/add recurrence latency-bound, so four
  // chains (two groups x two lane halves) keep the multiplier fed.
  // (A power-basis variant with precomputed x^l — independent multiplies,
  // no serial mul chain — measured SLOWER here: four lazy chains already
  // saturate multiply throughput, and the power-table loads only added
  // port pressure.)
  std::size_t g = 0;
  for (; g + 2 <= n; g += 2) {
    const M61* cg = c + g * deg_p1;
    const M61* ch = cg + deg_p1;
    __m256i a0 =
        _mm256_set1_epi64x(static_cast<long long>(cg[deg_p1 - 1].value()));
    __m256i a1 = a0;
    __m256i b0 =
        _mm256_set1_epi64x(static_cast<long long>(ch[deg_p1 - 1].value()));
    __m256i b1 = b0;
    for (std::size_t i = deg_p1 - 1; i-- > 0;) {
      const __m256i ci =
          _mm256_set1_epi64x(static_cast<long long>(cg[i].value()));
      const __m256i cj =
          _mm256_set1_epi64x(static_cast<long long>(ch[i].value()));
      a0 = m61_fold_avx2(_mm256_add_epi64(m61_mul_relaxed_avx2(a0, x0), ci));
      a1 = m61_fold_avx2(_mm256_add_epi64(m61_mul_relaxed_avx2(a1, x1), ci));
      b0 = m61_fold_avx2(_mm256_add_epi64(m61_mul_relaxed_avx2(b0, x0), cj));
      b1 = m61_fold_avx2(_mm256_add_epi64(m61_mul_relaxed_avx2(b1, x1), cj));
    }
    alignas(32) std::uint64_t out[2 * kM61Lanes];
    store4_avx2(out, m61_reduce_avx2(a0));
    store4_avx2(out + 4, m61_reduce_avx2(a1));
    store4_avx2(out + 8, m61_reduce_avx2(b0));
    store4_avx2(out + 12, m61_reduce_avx2(b1));
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      store_word_le(ptrs[l] + 8 * g, out[l]);
      store_word_le(ptrs[l] + 8 * g + 8, out[kM61Lanes + l]);
    }
  }
  for (; g < n; ++g) {
    const M61* cg = c + g * deg_p1;
    __m256i a0 =
        _mm256_set1_epi64x(static_cast<long long>(cg[deg_p1 - 1].value()));
    __m256i a1 = a0;
    for (std::size_t i = deg_p1 - 1; i-- > 0;) {
      const __m256i ci =
          _mm256_set1_epi64x(static_cast<long long>(cg[i].value()));
      a0 = m61_fold_avx2(_mm256_add_epi64(m61_mul_relaxed_avx2(a0, x0), ci));
      a1 = m61_fold_avx2(_mm256_add_epi64(m61_mul_relaxed_avx2(a1, x1), ci));
    }
    alignas(32) std::uint64_t out[kM61Lanes];
    store4_avx2(out, m61_reduce_avx2(a0));
    store4_avx2(out + 4, m61_reduce_avx2(a1));
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      store_word_le(ptrs[l] + 8 * g, out[l]);
    }
  }
}

/// Coefficient i of four consecutive row-major groups, gathered at stride
/// deg_p1 elements. \p ci points at group g's coefficient i.
__attribute__((target("avx2"))) inline __m256i load4_coeff_strided_avx2(
    const M61* ci, std::size_t deg_p1) {
  return _mm256_set_epi64x(static_cast<long long>(ci[3 * deg_p1].value()),
                           static_cast<long long>(ci[2 * deg_p1].value()),
                           static_cast<long long>(ci[deg_p1].value()),
                           static_cast<long long>(ci[0].value()));
}

__attribute__((target("avx2"))) inline void horner_groups_avx2(
    const M61* c, std::size_t deg_p1, std::size_t n_groups, M61 x,
    std::uint8_t* out) {
  const __m256i xb = _mm256_set1_epi64x(static_cast<long long>(x.value()));
  // Eight groups (two vectors) per iteration: the point is the broadcast
  // operand here and the coefficients the vector one — the transpose of
  // horner8_scatter — so coefficient loads are strided gathers, but the
  // arithmetic runs four lanes wide and the output stores are contiguous.
  std::size_t g = 0;
  for (; g + 8 <= n_groups; g += 8) {
    const M61* cg = c + g * deg_p1;
    const M61* ch = cg + 4 * deg_p1;
    __m256i a0 = load4_coeff_strided_avx2(cg + deg_p1 - 1, deg_p1);
    __m256i a1 = load4_coeff_strided_avx2(ch + deg_p1 - 1, deg_p1);
    for (std::size_t i = deg_p1 - 1; i-- > 0;) {
      a0 = m61_fold_avx2(
          _mm256_add_epi64(m61_mul_relaxed_avx2(a0, xb),
                           load4_coeff_strided_avx2(cg + i, deg_p1)));
      a1 = m61_fold_avx2(
          _mm256_add_epi64(m61_mul_relaxed_avx2(a1, xb),
                           load4_coeff_strided_avx2(ch + i, deg_p1)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * g),
                        m61_reduce_avx2(a0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * g + 32),
                        m61_reduce_avx2(a1));
  }
  for (; g < n_groups; ++g) {
    const M61* cg = c + g * deg_p1;
    M61 acc = cg[deg_p1 - 1];
    for (std::size_t i = deg_p1 - 1; i-- > 0;) acc = acc * x + cg[i];
    store_word_le(out + 8 * g, acc.value());
  }
}

#endif  // PPDS_M61XN_HAVE_AVX2_TARGET

}  // namespace detail

/// Lane Horner over ascending coefficients c[0..n), n >= 1: lane l equals
/// the scalar chain acc = c[n-1]; acc = acc * x + c[i] exactly.
inline M61x8 horner8(const M61* c, std::size_t n, const M61x8& x) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (detail::use_avx2()) return detail::horner8_avx2(c, n, x);
#endif
  return detail::horner8_portable(c, n, x);
}

/// Lane dot product with in-loop raw-word reduction: lane l equals the
/// scalar chain acc = init; acc = acc + w[i] * M61(z_raw[i*8 + l]) exactly.
inline M61x8 dot8_reduce(const M61x8& init, const M61* w,
                         const std::uint64_t* z_raw, std::size_t n) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (detail::use_avx2()) return detail::dot8_reduce_avx2(init, w, z_raw, n);
#endif
  return detail::dot8_reduce_portable(init, w, z_raw, n);
}

/// dot8_reduce over eight strided little-endian wire records: lane l's word
/// for term i lives at buf + l * stride + 8 * i. No transpose pass — the
/// kernel gathers in place.
inline M61x8 dot8_reduce_strided(const M61x8& init, const M61* w,
                                 const std::uint8_t* buf, std::size_t stride,
                                 std::size_t n) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (detail::use_avx2()) {
    return detail::dot8_reduce_strided_avx2(init, w, buf, stride, n);
  }
#endif
  return detail::dot8_reduce_strided_portable(init, w, buf, stride, n);
}

/// Fused Horner scatter over n coefficient groups (deg_p1 ascending
/// coefficients each): group g is Horner-evaluated on lanes at x and lane
/// l's value is stored little-endian at ptrs[l] + 8 * g. Lane semantics
/// match the scalar Horner chain exactly; the per-lane pointers let the
/// caller pack eight arbitrary records (e.g. the kept subset of a request
/// body) into one block.
inline void horner8_scatter(const M61* c, std::size_t deg_p1, std::size_t n,
                            const M61x8& x, std::uint8_t* const* ptrs) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (detail::use_avx2()) {
    detail::horner8_scatter_avx2(c, deg_p1, n, x, ptrs);
    return;
  }
#endif
  detail::horner8_scatter_portable(c, deg_p1, n, x, ptrs);
}

/// Single-point Horner over row-major groups (the horner8_scatter layout:
/// group g's ascending coefficients at c + g * deg_p1), storing group g's
/// canonical value little-endian at out + 8 * g. The tail companion of
/// horner8_scatter: leftover points of a partial lane block lane over
/// GROUPS here — strided coefficient gathers, four-wide arithmetic,
/// contiguous stores — instead of a whole scalar point sweep. Lane
/// semantics match the scalar chain acc = c[top]; acc = acc * x + c[i]
/// exactly.
inline void horner_groups(const M61* c, std::size_t deg_p1,
                          std::size_t n_groups, M61 x, std::uint8_t* out) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (detail::use_avx2()) {
    detail::horner_groups_avx2(c, deg_p1, n_groups, x, out);
    return;
  }
#endif
  detail::horner_groups_portable(c, deg_p1, n_groups, x, out);
}

}  // namespace ppds::field
