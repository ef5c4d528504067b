#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ppds/math/vec.hpp"

/// \file attacks.hpp
/// The paper's Level-2 privacy evaluations (Section VI-A, Figs. 5 and 6):
/// what a colluding group of clients can reconstruct from the values the
/// classification protocol hands back.
///
/// Fig. 5 — with the per-query amplifier ra in place, clients only see
/// r_i = ra_i * d(t_i) with fresh unknown ra_i > 0. The best they can do is
/// fit a hyperplane to (t_i, r_i); the estimates "keep rambling".
///
/// Fig. 6 — if ra were OMITTED, clients see exact distances d(t_i) and
/// n + 1 queries suffice to solve the linear system t_i . w + b = d(t_i)
/// exactly, fully recovering the model.
///
/// Beyond the paper — the OMPE request itself: a curious sender that tries
/// every (q+1)-subset of the M disguised pairs recovers the receiver's input
/// whenever only the genuine subset interpolates to a plausible vector
/// (recover_ompe_input; EXPERIMENTS.md records the measured shapes).

namespace ppds::core {

/// A fitted hyperplane estimate (w, b).
struct ModelEstimate {
  math::Vec w;
  double b = 0.0;
};

/// Least-squares fit of a hyperplane through (sample, value) observations —
/// the collusion estimator behind Fig. 5. Requires >= dim+1 observations.
ModelEstimate estimate_hyperplane(const std::vector<math::Vec>& samples,
                                  const std::vector<double>& values);

/// Exact reconstruction from dim+1 (or more) EXACT decision values — the
/// Fig. 6 attack that succeeds when ra is omitted. Uses the first dim+1
/// observations; throws if the system is singular.
ModelEstimate reconstruct_exact(const std::vector<math::Vec>& samples,
                                const std::vector<double>& values);

/// Angle in degrees between an estimated and the true hyperplane direction
/// (0 = perfect direction recovery, 90 = orthogonal). Sign-invariant.
double direction_error_degrees(const math::Vec& estimated,
                               const math::Vec& truth);

/// Outcome of the subset-enumeration attack on one OMPE request.
struct OmpeInputRecovery {
  bool found = false;
  math::Vec alpha;           ///< the accepted interpolant at 0 (if found)
  std::uint64_t trials = 0;  ///< (q+1)-subsets interpolated
};

/// What a curious sender learns from one captured real-backend OMPE request
/// (the bytes ompe::run_receiver sends) with masking degree \p q: tries the
/// (q+1)-subsets of the M pairs in lexicographic order, interpolates every
/// coordinate at 0, and stops at the first vector \p plausible accepts.
/// Needs no OT output — only the request and public knowledge of the
/// input's domain. Throws InvalidArgument on a field-backend request or a
/// keep count other than q + 1.
OmpeInputRecovery recover_ompe_input(
    std::span<const std::uint8_t> request, unsigned q,
    const std::function<bool(const math::Vec&)>& plausible);

}  // namespace ppds::core
