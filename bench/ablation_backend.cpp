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
#include "ppds/math/multipoly.hpp"
#include "ppds/net/party.hpp"
#include "ppds/ompe/ompe.hpp"
#include "../tests/support/loopback_ot.hpp"

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
        test::LoopbackSender ot;
        ompe::run_sender(ch, form.coeffs, form.constant, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed + 1);
        test::LoopbackReceiver ot;
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
  return 0;
}
