/// Regenerates FIG. 7 — "Accuracy of Linear Data Classification": per
/// dataset, the original (plain) linear SVM accuracy next to the
/// privacy-preserving scheme's accuracy. The paper's claim is equality; we
/// run the full private pipeline on a verification subsample and check the
/// predictions agree point-by-point with the plain SVM, which establishes
/// the accuracies are identical (the private value is ra*d(t), same sign).

#include <cstdio>

#include "bench_util.hpp"
#include "ppds/core/classification.hpp"
#include "ppds/data/synthetic.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/smo.hpp"

int main() {
  using namespace ppds;
  bench::banner("FIG. 7: Accuracy of linear classification, original vs private");
  bench::note(
      "private pipeline verified on a 60-sample subsample per dataset "
      "(prediction-by-prediction equality implies equal accuracy)");
  const char* names[] = {"splice",     "madelon",    "diabetes",
                         "german.numer", "australian", "cod-rna",
                         "ionosphere", "breast-cancer"};
  std::printf("%-14s | %9s | %9s | %12s\n", "Dataset", "Original",
              "Private", "agree/probed");
  bench::rule(56);
  int mismatches = 0;
  for (const char* name : names) {
    const auto spec = *data::spec_by_name(name);
    auto [train, test] = data::generate(spec);
    const auto model =
        svm::train_svm(train, svm::Kernel::linear(), {spec.c_linear});
    const double plain_acc =
        svm::accuracy(model.predict_all(test.x), test.y);

    const auto profile =
        core::ClassificationProfile::make(spec.dim, model.kernel());
    const auto cfg = core::SchemeConfig::fast_simulation();
    core::ClassificationServer server(model, profile, cfg);
    core::ClassificationClient client(profile, cfg);
    const std::size_t probe = std::min<std::size_t>(60, test.size());
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(1);
          server.serve(ch, probe, rng);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(2);
          std::size_t agree = 0;
          for (std::size_t i = 0; i < probe; ++i) {
            if (client.classify(ch, test.x[i], rng) ==
                model.predict(test.x[i])) {
              ++agree;
            }
          }
          return agree;
        });
    const bool identical = outcome.b == probe;
    std::printf("%-14s | %8.2f%% | %8.2f%% | %zu/%zu %s\n", name,
                100.0 * plain_acc, identical ? 100.0 * plain_acc : -1.0,
                outcome.b, probe, identical ? "" : "MISMATCH");
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
