#pragma once

#include <span>
#include <vector>

#include "ppds/common/fixed_point.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/common/secret_taint.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/math/multipoly.hpp"
#include "ppds/net/channel.hpp"

/// \file ompe.hpp
/// Oblivious Multivariate Polynomial Evaluation (Section III-C / IV of the
/// paper, after Tassa et al.).
///
/// Roles:
///  * the SENDER (the paper's Alice / trainer) holds a secret multivariate
///    polynomial P over r variates with total degree p;
///  * the RECEIVER (Bob / client) holds an input vector alpha in R^r and
///    learns P(alpha); the sender learns nothing about alpha, the receiver
///    learns nothing about P beyond the single value.
///
/// Mechanics (one protocol round trip + one k-out-of-n OT):
///  1. Receiver draws r random degree-q cover polynomials g_i, g_i(0) =
///     alpha_i, bundles them as G(v); picks M = m*k nonzero distinct nodes
///     v_1..v_M with a secret subset I of size m = p*q + 1; sets
///     z_sigma = G(v_sigma) on I and random disguise vectors elsewhere;
///     ships all (v_i, z_i).
///  2. Sender draws a masking polynomial h of degree p*q with h(0) = 0,
///     evaluates w_i = h(v_i) + P(z_i) for every pair.
///  3. m-out-of-M OT delivers exactly the w_sigma with sigma in I.
///  4. Receiver Lagrange-interpolates B through (v_sigma, w_sigma) and
///     outputs B(0) = h(0) + P(G(0)) = P(alpha).
///
/// Backends:
///  * kReal  — long-double arithmetic; the paper's formulation over R.
///    Masking is statistical (bounded random coefficients).
///  * kField — exact arithmetic in F_{2^61-1} over fixed-point encodings;
///    masking coefficients are uniform field elements (information-
///    theoretic, matching the original OMPE construction). The decoded
///    result is exact to the fixed-point grid — the backend of choice when
///    only the SIGN of the result matters (classification).

namespace ppds::ompe {

enum class Backend : std::uint8_t { kReal = 0, kField = 1 };

/// Public protocol parameters (shared by both parties out of band).
struct OmpeParams {
  unsigned q = 8;        ///< masking-degree security parameter of the paper
  unsigned k = 3;        ///< cover blow-up; M = (p*q + 1) * k
  Backend backend = Backend::kReal;
  unsigned frac_bits = 20;  ///< fixed-point scale (field backend only)
  double node_lo = 0.3;  ///< |v| lower bound for real-backend nodes
  double node_hi = 1.5;  ///< |v| upper bound for real-backend nodes

  // --- Local performance knobs --------------------------------------------
  // NOT protocol parameters: they never change wire bytes (transcripts are
  // bit-identical for every setting, enforced by tests), so they are
  // excluded from the session digest and the parties need not agree on them.

  /// Worker-task budget for the per-point masked evaluation loops (the
  /// sender's M-point A(v, z) sweep and the receiver's M-point cover /
  /// disguise sweep). 0 = one task per hardware thread; 1 = run inline.
  /// Small workloads stay inline regardless — see docs/PERFORMANCE.md §1.4.
  unsigned eval_threads = 0;

  /// Run the field-backend point sweeps on packed Mersenne-61 lanes
  /// (field::M61x8 — AVX2 when the CPU has it, bit-identical portable
  /// kernels otherwise; see field/m61xn.hpp for the dispatch rules).
  /// Transcripts are unchanged for every setting; off pins the scalar
  /// reference path for A/B tests and benchmarks. Real-backend sweeps
  /// ignore it.
  bool use_simd_field = true;

  /// Number of pairs the receiver keeps (polynomial degree p known).
  std::size_t m(unsigned p) const { return static_cast<std::size_t>(p) * q + 1; }
  /// Total number of disguised pairs.
  std::size_t big_m(unsigned p) const { return m(p) * k; }
};

/// Snapshot of the process-wide OMPE stage counters (mirrors
/// crypto::exp_counters()): wall time and element counts per protocol stage,
/// so perf work can attribute cost without a profiler. Both roles feed the
/// same counters — in-process two-party runs therefore see the union of the
/// sender's and the receiver's work.
struct StageCounters {
  std::uint64_t mask_eval_ns = 0;      ///< sender: parse + h(v) + P(z) sweep
  std::uint64_t mask_eval_points = 0;  ///< disguised pairs evaluated
  std::uint64_t cover_eval_ns = 0;     ///< receiver: covers, nodes, disguises
  std::uint64_t cover_eval_points = 0; ///< disguised pairs produced
  std::uint64_t ot_ns = 0;             ///< both roles: m-out-of-M OT wall time
  std::uint64_t ot_elements = 0;       ///< sender: values offered; receiver: kept
  std::uint64_t interp_ns = 0;         ///< receiver: Lagrange interpolation
  std::uint64_t interp_points = 0;     ///< interpolation support points
};

/// Reads the counters (monotonic since process start or the last reset).
/// Thread-safe.
StageCounters stage_counters();

/// Resets all stage counters to zero (benchmark bracketing). Thread-safe.
void reset_stage_counters();

/// Runs the sender role for one evaluation. \p secret must have total
/// degree >= 1; its arity and degree are public. When amplification is
/// wanted (the paper's ra / rb), the caller bakes it into \p secret first.
///
/// \p declared_degree lets the caller announce a degree LARGER than the
/// secret's actual total degree (0 = use the actual degree). The nonlinear
/// classification scheme declares the kernel degree p although the expanded
/// polynomial is linear in the monomial variates tau, so the protocol cost
/// m = p*q + 1 matches Section IV-B of the paper.
void run_sender(net::Endpoint& channel, PPDS_SECRET const math::MultiPoly& secret,
                const OmpeParams& params, crypto::OtSender& ot, Rng& rng,
                unsigned declared_degree = 0);

/// Fast path for secrets that are LINEAR in the (possibly transformed)
/// input variates: d(z) = w . z + b. The nonlinear classification scheme
/// expands the kernel into up to hundreds of thousands of monomial
/// variates; representing that expansion as a MultiPoly would cost
/// O(arity^2) memory, while this path evaluates each disguised pair in
/// O(arity). Protocol messages are identical to the generic path.
void run_sender_linear(net::Endpoint& channel,
                       PPDS_SECRET std::span<const double> w,
                       PPDS_SECRET double b, const OmpeParams& params,
                       crypto::OtSender& ot, Rng& rng,
                       unsigned declared_degree = 0);

/// Runs the receiver role; returns P(alpha).
/// \p degree and \p arity describe the sender's polynomial (public).
double run_receiver(net::Endpoint& channel,
                    PPDS_SECRET std::span<const double> alpha,
                    unsigned degree, std::size_t arity,
                    const OmpeParams& params, crypto::OtReceiver& ot,
                    Rng& rng);

}  // namespace ppds::ompe
