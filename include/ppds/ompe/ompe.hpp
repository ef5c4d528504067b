#pragma once

#include <span>
#include <vector>

#include "ppds/common/fixed_point.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/common/secret_taint.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/net/channel.hpp"

/// \file ompe.hpp
/// Oblivious Multivariate Polynomial Evaluation (Section III-C / IV of the
/// paper, after Tassa et al.), specialized to degree 1.
///
/// Roles:
///  * the SENDER (the paper's Alice / trainer) holds a secret linear form
///    P(z) = w . z + b over r public features;
///  * the RECEIVER (Bob / client) holds a feature vector alpha in R^r and
///    learns P(alpha); the sender learns nothing about alpha, the receiver
///    learns nothing about P beyond the single value.
///
/// Every secret the schemes serve is linear over a public feature map: the
/// polynomial kernel, the RBF/sigmoid Taylor truncations, the kernelized
/// similarity dot products and Eq. (7) are all inner products over a
/// monomial basis (math::linearize). The receiver maps its input through
/// the basis; the OMPE round itself is always degree 1.
///
/// Mechanics (one protocol round trip + one k-out-of-n OT):
///  1. Receiver draws r random degree-q cover polynomials g_i, g_i(0) =
///     alpha_i, bundles them as G(v); picks M = m*k nonzero distinct nodes
///     v_1..v_M with a secret subset I of size m = q + 1; sets
///     z_sigma = G(v_sigma) on I and random disguise vectors elsewhere;
///     ships all (v_i, z_i).
///  2. Sender draws a masking polynomial h of degree q with h(0) = 0,
///     evaluates w_i = h(v_i) + P(z_i) for every pair.
///  3. m-out-of-M OT delivers exactly the w_sigma with sigma in I.
///  4. Receiver Lagrange-interpolates B through (v_sigma, w_sigma) and
///     outputs B(0) = h(0) + P(G(0)) = P(alpha).
///
/// The paper sizes m = p*q + 1 for a degree-p secret; here p = 1 always.
/// Degree 1 does not make small shapes private: a curious sender that tries
/// every (q+1)-subset of the M pairs and keeps the one whose interpolant at
/// 0 passes a plausibility check recovers alpha (core::recover_ompe_input,
/// EXPERIMENTS.md). Choosing q and k against that search is open work.
///
/// Backends:
///  * kReal  — long-double arithmetic; the paper's formulation over R.
///    Masking is statistical (bounded random coefficients).
///  * kField — exact arithmetic in F_{2^61-1} over fixed-point encodings;
///    masking coefficients are uniform field elements (information-
///    theoretic, matching the original OMPE construction). The decoded
///    result is exact to the fixed-point grid. No served scenario selects
///    it; it stays as the exact reference that checks the real backend's
///    numerics (tests, bench/ablation_backend, examples/medical_network).
///    Its sweeps are scalar loops with the same shape as the real backend's.

namespace ppds::ompe {

enum class Backend : std::uint8_t { kReal = 0, kField = 1 };

/// Fixed-point scale of the field backend: fractional bits of one encoded
/// factor. A protocol constant (the session digests hash it).
inline constexpr unsigned kFracBits = 20;

/// |v| bounds of the real backend's interpolation nodes. Protocol constants
/// (the session digests hash them).
inline constexpr double kNodeLo = 0.3;
inline constexpr double kNodeHi = 1.5;

/// Public protocol parameters (shared by both parties out of band; the
/// session digest hashes all three). The point sweeps take no local knobs:
/// they split into one worker task per hardware thread above 2^14 elements
/// and run inline below, and the chunking never changes a wire byte.
struct OmpeParams {
  unsigned q = 8;        ///< masking-degree security parameter of the paper
  unsigned k = 3;        ///< cover blow-up; M = (q + 1) * k
  Backend backend = Backend::kReal;

  /// Number of pairs the receiver keeps.
  std::size_t m() const { return static_cast<std::size_t>(q) + 1; }
  /// Total number of disguised pairs.
  std::size_t big_m() const { return m() * k; }
};

/// Fails closed on shapes that hide nothing or that the OT engines cannot
/// carry. Throws InvalidArgument for q = 0 (every cover is the constant
/// alpha), k < 2 (every pair is genuine, so the sender interpolates alpha
/// itself) and M = (q+1)k > crypto::kMaxDirectArity (no direct 1-of-M
/// slot). Both protocol roles call it before touching the channel.
void validate(const OmpeParams& params);

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

/// Runs the sender role for one evaluation of P(z) = w . z + b. The arity
/// w.size() is public. When amplification is wanted (the paper's ra / rb),
/// the caller bakes it into w and b first.
void run_sender(net::Endpoint& channel, PPDS_SECRET std::span<const double> w,
                PPDS_SECRET double b, const OmpeParams& params,
                crypto::OtSender& ot, Rng& rng);

/// Runs the receiver role; returns P(alpha). alpha.size() is the sender's
/// (public) arity.
double run_receiver(net::Endpoint& channel,
                    PPDS_SECRET std::span<const double> alpha,
                    const OmpeParams& params, crypto::OtReceiver& ot,
                    Rng& rng);

}  // namespace ppds::ompe
