/// ABLATION — numeric backend of the OMPE protocol. The paper formulates
/// OMPE over the reals; floating-point interpolation at degree q loses
/// accuracy as q grows, while the exact Mersenne-61 fixed-point backend is
/// immune to the interpolation and pays only the fixed-point grid. This
/// bench sweeps q and reports the observed absolute error of the returned
/// value against the true polynomial value for both backends, plus the
/// sign-agreement rate on near-boundary samples (the quantity that decides
/// classifications). A degree-4 secret runs, like every served secret, as a
/// linear form over its monomial feature map.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "ppds/common/stopwatch.hpp"
#include "ppds/field/m61xn.hpp"
#include "ppds/math/multipoly.hpp"
#include "ppds/net/party.hpp"
#include "ppds/ompe/ompe.hpp"

namespace {

using namespace ppds;

/// One OMPE round of \p secret linearized over its monomial basis, with
/// the receiver holding the features of \p alpha.
double one_round(const math::MultiPoly& secret,
                 const std::vector<double>& alpha,
                 const ompe::OmpeParams& params, std::uint64_t seed) {
  const auto basis =
      math::monomials_up_to(secret.arity(), std::max(1u, secret.total_degree()));
  const math::LinearExpansion form = math::linearize(secret, basis);
  const std::vector<double> features = math::monomial_transform(basis, alpha);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        crypto::LoopbackSender ot;
        ompe::run_sender(ch, form.coeffs, form.constant, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed + 1);
        crypto::LoopbackReceiver ot;
        return ompe::run_receiver(ch, features, params, ot, rng);
      });
  return outcome.b;
}

}  // namespace

int main() {
  bench::banner("ABLATION: real vs exact-field OMPE backend");
  std::printf("%-4s %-8s | %14s %10s | %14s %10s\n", "q", "degree",
              "real max err", "real sign%", "field max err", "field sign%");
  bench::rule(76);

  Rng rng(42);
  for (unsigned q : {2u, 4u, 8u, 16u}) {
    for (unsigned degree : {1u, 4u}) {
      // Random polynomial of the requested total degree over 2 variables,
      // evaluated at near-boundary inputs (small |P(alpha)|).
      double real_err = 0.0, field_err = 0.0;
      int real_sign = 0, field_sign = 0, trials = 0;
      for (int trial = 0; trial < 20; ++trial) {
        math::MultiPoly p(2);
        if (degree == 1) {
          p = math::MultiPoly::affine(
              {rng.uniform_nonzero(-1, 1), rng.uniform_nonzero(-1, 1)},
              rng.uniform(-0.01, 0.01));
        } else {
          p.add_term(rng.uniform_nonzero(-1, 1), {2, 2});
          p.add_term(rng.uniform_nonzero(-1, 1), {1, 1});
          p.add_term(rng.uniform_nonzero(-1, 1), {1, 0});
          p.add_constant(rng.uniform(-0.01, 0.01));
        }
        // Inputs on a 2^-5 grid: every feature up to degree 4 then sits on
        // the 2^-20 grid of the field backend, which stays exact.
        const double g = 1.0 / (1 << 5);
        std::vector<double> alpha{
            std::round(rng.uniform(-1, 1) / g) * g,
            std::round(rng.uniform(-1, 1) / g) * g};
        const double truth = p.evaluate(alpha);

        ompe::OmpeParams params;
        params.q = q;
        const double real_got =
            one_round(p, alpha, params, 1000 + trial + q * 100);
        real_err = std::fmax(real_err, std::abs(real_got - truth));
        real_sign += (real_got >= 0) == (truth >= 0) ? 1 : 0;

        // Headroom: value * 2^{2 * frac_bits} must stay below p/2 = 2^60,
        // which the default 20 fractional bits leave for |value| < 2^20.
        params.backend = ompe::Backend::kField;
        const double field_got =
            one_round(p, alpha, params, 5000 + trial + q * 100);
        field_err = std::fmax(field_err, std::abs(field_got - truth));
        field_sign += (field_got >= 0) == (truth >= 0) ? 1 : 0;
        ++trials;
      }
      std::printf("%-4u %-8u | %14.3e %9.1f%% | %14.3e %9.1f%%\n", q, degree,
                  real_err, 100.0 * real_sign / trials, field_err,
                  100.0 * field_sign / trials);
    }
  }
  std::printf(
      "\nThe field backend's error is the fixed-point grid, independent of "
      "q;\nthe real backend's error grows with the interpolation degree "
      "q.\n");

  // --- scalar vs SIMD lane engine, exact-field backend ---------------------
  // Same protocol round with use_simd_field off/on. The lane kernels are
  // proven bit-identical to the scalar chain (same transcripts, same
  // residues), so the returned values must match EXACTLY — the row is both
  // a timing ablation and an end-to-end equivalence check.
  bench::banner("ABLATION: field-backend engine, scalar vs SIMD lanes");
  std::printf("active engine: %s\n", field::simd_caps().active);

  const std::size_t wide_n = 512;
  Rng wrng(7);
  std::vector<double> w(wide_n), alpha(wide_n);
  const double grid = 1.0 / (1 << 12);
  for (std::size_t i = 0; i < wide_n; ++i) {
    w[i] = wrng.uniform_nonzero(-1, 1);
    alpha[i] = std::round(wrng.uniform(-1, 1) / grid) * grid;
  }
  const math::MultiPoly wide = math::MultiPoly::affine(w, 0.01);
  // Degree-1 secret over raw inputs: the 2^-12 grid is exact at 20 bits.

  ompe::OmpeParams params;
  params.q = 8;
  params.k = 3;
  params.backend = ompe::Backend::kField;
  params.eval_threads = 1;

  // Whole-round time includes OT serialization and interpolation, which the
  // engine does not touch — so the mask/cover stage times (where the lane
  // kernels actually run) are reported alongside. Best-of-reps minima filter
  // scheduler noise.
  const int reps = 9;
  double round_ms[2] = {0.0, 0.0};
  double mask_ms[2] = {0.0, 0.0};
  double cover_ms[2] = {0.0, 0.0};
  double got[2] = {0.0, 0.0};
  for (int simd = 0; simd < 2; ++simd) {
    params.use_simd_field = simd != 0;
    double best = 1e30, best_mask = 1e30, best_cover = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      ompe::reset_stage_counters();
      Stopwatch watch;
      got[simd] = one_round(wide, alpha, params, 9000 + rep);
      best = std::min(best, watch.millis());
      const ompe::StageCounters stages = ompe::stage_counters();
      best_mask =
          std::min(best_mask, static_cast<double>(stages.mask_eval_ns) / 1e6);
      best_cover =
          std::min(best_cover, static_cast<double>(stages.cover_eval_ns) / 1e6);
    }
    round_ms[simd] = best;
    mask_ms[simd] = best_mask;
    cover_ms[simd] = best_cover;
  }
  std::printf("%-14s | %10s %10s %10s | %12s\n", "engine", "round ms",
              "mask ms", "cover ms", "value");
  bench::rule(66);
  std::printf("%-14s | %10.3f %10.3f %10.3f | %12.6f\n", "scalar", round_ms[0],
              mask_ms[0], cover_ms[0], got[0]);
  std::printf("%-14s | %10.3f %10.3f %10.3f | %12.6f\n",
              field::simd_caps().active, round_ms[1], mask_ms[1], cover_ms[1],
              got[1]);
  std::printf(
      "mask speedup: %.2fx, cover speedup: %.2fx; results identical: %s\n",
      mask_ms[0] / mask_ms[1], cover_ms[0] / cover_ms[1],
      got[0] == got[1] ? "yes" : "NO (BUG)");
  return got[0] == got[1] ? 0 : 1;
}
