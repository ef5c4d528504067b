/// ABLATION — collusion scaling of Level-2 privacy (extends Fig. 5).
/// The reproduction surfaced a leak the paper does not analyze: the
/// positive amplifier ra has a finite mean, so a coalition's least-squares
/// fit of (sample, ra*d(sample)) pairs is a CONSISTENT estimator of the
/// model's direction. This bench quantifies the decay: direction error vs
/// coalition size, across feature dimensions — higher dimensions need
/// proportionally larger coalitions, and the scale/offset never converge.

#include <cmath>
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "ppds/core/attacks.hpp"
#include "ppds/core/classification.hpp"
#include "ppds/net/party.hpp"

int main() {
  using namespace ppds;
  bench::banner("ABLATION: direction leak vs coalition size (extends Fig. 5)");
  std::printf("%-4s |", "dim");
  const std::size_t sizes[] = {10, 25, 50, 100, 250};
  for (std::size_t n : sizes) std::printf(" %7zu", n);
  std::printf("   (direction error in degrees; median of 5 runs)\n");
  bench::rule(64);

  // One OT bundle per side for the whole sweep, as one keep-alive
  // connection holds them: the seed agreement runs once, not per run.
  const auto cfg = core::SchemeConfig::silent();
  Rng server_ot_rng(31);
  Rng client_ot_rng(32);
  core::OtBundle server_ot(cfg, server_ot_rng);
  core::OtBundle client_ot(cfg, client_ot_rng);

  for (std::size_t dim : {2u, 4u, 8u, 16u}) {
    Rng setup(1000 + dim);
    math::Vec w(dim);
    for (auto& v : w) v = setup.uniform_nonzero(-1, 1, 0.1);
    const svm::SvmModel model(svm::Kernel::linear(), {w}, {1.0},
                              setup.uniform(-0.2, 0.2));
    const auto truth = model.linear_weights();
    const auto profile =
        core::ClassificationProfile::make(dim, model.kernel());
    core::ClassificationServer server(model, profile, cfg);
    core::ClassificationClient client(profile, cfg);

    std::printf("%-4zu |", dim);
    for (std::size_t coalition : sizes) {
      if (coalition < dim + 2) {
        std::printf(" %7s", "-");
        continue;
      }
      std::vector<double> errors;
      for (int run = 0; run < 5; ++run) {
        Rng sample_rng(77 + run);
        std::vector<math::Vec> samples;
        for (std::size_t i = 0; i < coalition; ++i) {
          math::Vec t(dim);
          for (auto& v : t) v = sample_rng.uniform(-1, 1);
          samples.push_back(std::move(t));
        }
        auto outcome = net::run_two_party(
            [&](net::Endpoint& ch) {
              Rng r(10 + run);
              for (std::size_t q = 0; q < coalition; ++q) {
                server.serve(ch, 1, r, &server_ot);
              }
              return 0;
            },
            [&](net::Endpoint& ch) {
              Rng r(20 + run);
              std::vector<double> values;
              for (const auto& s : samples) {
                values.push_back(client.query_value(ch, s, r, &client_ot));
              }
              return values;
            });
        const auto est = core::estimate_hyperplane(samples, outcome.b);
        errors.push_back(core::direction_error_degrees(est.w, truth));
      }
      std::sort(errors.begin(), errors.end());
      std::printf(" %7.1f", errors[errors.size() / 2]);
    }
    std::printf("\n");
  }
  std::printf(
      "\nScale/offset stay hidden at every size; the DIRECTION error decays\n"
      "roughly like 1/sqrt(coalition) per dimension. Defenses: bound the\n"
      "number of queries a single client identity may issue, or widen the\n"
      "ra distribution's tails (both outside the paper's model).\n");
  return 0;
}
