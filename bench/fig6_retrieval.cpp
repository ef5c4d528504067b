/// Regenerates FIG. 6 — "Decision Function Retrieval": geometric/algebraic
/// reconstruction of a linear classifier from exact distance values. With
/// n + 1 EXACT decision values the linear system t_i.w + b = d(t_i) pins the
/// model down completely; the per-query amplifier ra is precisely what the
/// scheme adds to destroy this attack. We run both variants through the real
/// protocol machinery.

#include <cstdio>

#include "bench_util.hpp"
#include "ppds/core/attacks.hpp"
#include "ppds/core/classification.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/smo.hpp"

int main() {
  using namespace ppds;
  bench::banner("FIG. 6: Retrieval from exact distances vs randomized values");

  const svm::SvmModel model(svm::Kernel::linear(), {{0.8, -0.6}}, {1.0}, 0.25);
  const auto truth = model.linear_weights();
  std::printf("true model: w = (%+.4f, %+.4f), b = %+.4f\n", truth[0],
              truth[1], model.bias());

  Rng rng(3);
  std::vector<math::Vec> samples;
  for (int i = 0; i < 3; ++i) {  // n + 1 = 3 points in 2-D
    samples.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }

  // Attack 1: exact distances (what Bob would see if ra were OMITTED).
  std::vector<double> exact_values;
  for (const auto& s : samples) exact_values.push_back(model.decision_value(s));
  const auto exact = core::reconstruct_exact(samples, exact_values);
  std::printf("\nwithout ra (3 exact values):  w = (%+.6f, %+.6f), b = %+.6f"
              "  -> EXACT recovery (err %.2e°)\n",
              exact.w[0], exact.w[1], exact.b,
              core::direction_error_degrees(exact.w, truth));

  // Attack 2: the same three queries through the real protocol (fresh ra).
  const auto profile = core::ClassificationProfile::make(2, model.kernel());
  const auto cfg = core::SchemeConfig::silent();
  core::ClassificationServer server(model, profile, cfg);
  core::ClassificationClient client(profile, cfg);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(10);
        // The OT engines draw from their own stream, so the randomized
        // values do not depend on the engine's draws.
        Rng ot_rng(110);
        core::OtBundle ot(cfg, ot_rng);
        for (std::size_t q = 0; q < samples.size(); ++q) {
          server.serve(ch, 1, r, &ot);
        }
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(11);
        Rng ot_rng(111);
        core::OtBundle ot(cfg, ot_rng);
        std::vector<double> values;
        for (const auto& s : samples) {
          values.push_back(client.query_value(ch, s, r, &ot));
        }
        return values;
      });
  const auto protectd = core::reconstruct_exact(samples, outcome.b);
  std::printf("with ra (protocol values):    w = (%+.6f, %+.6f), b = %+.6f"
              "  -> garbage (err %.2f°)\n",
              protectd.w[0], protectd.w[1], protectd.b,
              core::direction_error_degrees(protectd.w, truth));
  std::printf("\nSigns still agree with the true classifier on all queries: ");
  bool all_signs = true;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    all_signs &= (outcome.b[i] >= 0) == (exact_values[i] >= 0);
  }
  std::printf("%s\n", all_signs ? "yes (classification is unharmed)" : "NO");
  return all_signs ? 0 : 1;
}
