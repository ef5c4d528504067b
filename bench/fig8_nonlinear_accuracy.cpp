/// Regenerates FIG. 8 — "Accuracy of Nonlinear Data Classification": the
/// polynomial-kernel (a0 = 1/n, b0 = 0, p = 3) SVM, original vs the private
/// scheme with the monomial transform tau. Same methodology as fig7: the
/// private pipeline is verified prediction-by-prediction on a subsample.
///
/// Protocol parameters use q = 2 here: the monomial expansion has up to
/// ~40k features (splice), and m = q + 1 = 3 retrievals of M = 6 pairs per
/// query keep the run tractable on one core. Correctness is q-independent.

#include <cstdio>

#include "bench_util.hpp"
#include "ppds/core/classification.hpp"
#include "ppds/data/synthetic.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/smo.hpp"

int main() {
  using namespace ppds;
  bench::banner(
      "FIG. 8: Accuracy of nonlinear classification, original vs private");
  bench::note("madelon runs at 40 features (paper: 500) — see DESIGN.md §4");
  const char* names[] = {"cod-rna",    "splice",       "diabetes",
                         "australian", "ionosphere",   "german.numer",
                         "breast-cancer", "madelon"};
  std::printf("%-14s | %9s | %9s | %12s | %9s\n", "Dataset", "Original",
              "Private", "agree/probed", "variates");
  bench::rule(70);
  int mismatches = 0;
  for (const char* name : names) {
    const auto spec = *data::spec_by_name(name);
    auto [train, test] = data::generate(spec);
    const auto kernel = svm::Kernel::paper_polynomial(spec.dim);
    const auto model = svm::train_svm(train, kernel, {spec.c_poly});
    const double plain_acc =
        svm::accuracy(model.predict_all(test.x), test.y);

    const auto profile = core::ClassificationProfile::make(spec.dim, kernel);
    auto cfg = core::SchemeConfig::silent();
    cfg.ompe.q = 2;
    core::ClassificationServer server(model, profile, cfg);
    core::ClassificationClient client(profile, cfg);
    const std::size_t probe =
        std::min<std::size_t>(profile.poly_arity > 10000 ? 15 : 40,
                              test.size());
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(1);
          core::OtBundle ot(cfg, rng);
          for (std::size_t q = 0; q < probe; ++q) {
            server.serve(ch, 1, rng, &ot);
          }
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(2);
          core::OtBundle ot(cfg, rng);
          std::size_t agree = 0;
          for (std::size_t i = 0; i < probe; ++i) {
            if (client.classify(ch, test.x[i], rng, &ot) ==
                model.predict(test.x[i])) {
              ++agree;
            }
          }
          return agree;
        });
    const bool identical = outcome.b == probe;
    std::printf("%-14s | %8.2f%% | %8.2f%% | %9zu/%-2zu | %9zu\n", name,
                100.0 * plain_acc, identical ? 100.0 * plain_acc : -1.0,
                outcome.b, probe, profile.poly_arity);
    mismatches += identical ? 0 : 1;
  }
  // The paper's claim is equality: any disagreeing probe fails the run.
  if (mismatches != 0) {
    std::printf("FAIL: %d dataset(s) with private != plain predictions\n",
                mismatches);
    return 1;
  }
  return 0;
}
