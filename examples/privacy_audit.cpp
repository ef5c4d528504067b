/// PRIVACY AUDIT — what each party actually sees on the wire, and what a
/// coalition can (and cannot) do with it. A walkthrough of the paper's two
/// privacy levels (Section VI-A) against the real protocol:
///
///   Level 1: per-step privacy. We dump the sizes and shapes of every
///   message; the trainer's view of a query is indistinguishable noise, and
///   repeating the same query produces a completely different transcript.
///
///   Level 2: post-protocol collusion. Clients pooling their randomized
///   results cannot reconstruct the model offsets/scale; without the
///   amplifier the model falls immediately.

#include <cstdio>

#include "ppds/core/attacks.hpp"
#include "ppds/core/classification.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/smo.hpp"

int main() {
  using namespace ppds;
  std::printf("=== Privacy audit of the classification protocol ===\n\n");

  const svm::SvmModel model(svm::Kernel::linear(), {{0.6, -0.8}}, {1.0}, 0.2);
  const auto profile = core::ClassificationProfile::make(2, model.kernel());
  auto cfg = core::SchemeConfig::silent();
  core::ClassificationServer server(model, profile, cfg);
  core::ClassificationClient client(profile, cfg);
  const math::Vec sample{0.35, 0.75};

  // --- Level 1: transcript inspection ----------------------------------
  std::printf("[Level 1] transcripts of the SAME query, run twice:\n");
  for (int run = 0; run < 2; ++run) {
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          // The trainer's view: the OT seed agreement, then one request
          // blob + the OT flow.
          Rng rng(99);
          core::OtBundle ot(cfg, rng);
          ch.set_stage(net::Stage::kOtSetup);
          ot.prepare_sender(ch, core::ot_demand_per_query(cfg.ompe));
          ch.set_stage(net::Stage::kOmpeRequest);
          const Bytes request = ch.recv();
          std::printf("  run %d: Alice sees a %4zu-byte request: [", run + 1,
                      request.size());
          for (int b = 0; b < 8; ++b) std::printf("%02x", request[16 + b]);
          std::printf("...] (changes every run: fresh covers)\n");
          ch.close();
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(1000 + run * 7919);  // different client randomness per run
          core::OtBundle ot(cfg, rng);
          try {
            client.query_value(ch, sample, rng, &ot);
          } catch (const ProtocolError&) {
            // channel intentionally closed after capture
          }
          return 0;
        });
    (void)outcome;
  }

  // --- Level 2: collusion with and without the amplifier ---------------
  std::printf("\n[Level 2] coalition of 30 clients pooling results:\n");
  Rng rng(5);
  std::vector<math::Vec> samples;
  for (int i = 0; i < 30; ++i) {
    samples.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(6);
        // The OT engines draw from their own stream, so the randomized
        // values do not depend on the engine's draws.
        Rng ot_rng(106);
        core::OtBundle ot(cfg, ot_rng);
        for (std::size_t q = 0; q < samples.size(); ++q) {
          server.serve(ch, 1, r, &ot);
        }
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(7);
        Rng ot_rng(107);
        core::OtBundle ot(cfg, ot_rng);
        std::vector<double> values;
        for (const auto& s : samples) {
          values.push_back(client.query_value(ch, s, r, &ot));
        }
        return values;
      });
  const auto truth = model.linear_weights();
  const auto est = core::estimate_hyperplane(samples, outcome.b);
  std::printf("  protected fit:  w=(%.2f, %.2f) b=%.2f -> direction err "
              "%.1f°, scale off by %.0fx\n",
              est.w[0], est.w[1], est.b,
              core::direction_error_degrees(est.w, truth),
              math::norm(est.w) / math::norm(truth));

  std::vector<double> unprotected;
  for (const auto& s : samples) unprotected.push_back(model.decision_value(s));
  const auto leak = core::estimate_hyperplane(samples, unprotected);
  std::printf("  WITHOUT ra:     w=(%.4f, %.4f) b=%.4f -> model recovered "
              "exactly (err %.2e°)\n",
              leak.w[0], leak.w[1], leak.b,
              core::direction_error_degrees(leak.w, truth));

  std::printf("\nTakeaway: the amplifier destroys scale and offset; the\n"
              "direction degrades only slowly with coalition size (see\n"
              "bench/fig5_model_estimation and EXPERIMENTS.md).\n");
  return 0;
}
