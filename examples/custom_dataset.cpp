/// CUSTOM DATASET — bring your own LIBSVM-format file.
///
/// Demonstrates the full ingestion path a downstream user needs: read a
/// sparse LIBSVM text file, scale features to [-1, 1] (fit on train, apply
/// to test — the paper's preprocessing), pick the box constraint by k-fold
/// cross-validation, train, and serve private classifications.
///
/// Usage:  custom_dataset [file.libsvm]
/// Without an argument it writes and uses a small self-generated file, so
/// the example always runs.

#include <cstdio>
#include <filesystem>

#include "ppds/core/classification.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/validation.hpp"

namespace {

using namespace ppds;

std::string make_demo_file() {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ppds_demo.libsvm").string();
  Rng rng(4242);
  svm::Dataset d;
  while (d.size() < 300) {
    // Unscaled "raw" features on purpose: the scaler has work to do.
    math::Vec x{rng.uniform(0, 100), rng.uniform(-5, 5), rng.uniform(0, 1)};
    const double s = 0.02 * (x[0] - 50.0) + 0.3 * x[1] + 2.0 * (x[2] - 0.5);
    if (std::abs(s) < 0.1) continue;
    d.push(std::move(x), s > 0 ? 1 : -1);
  }
  svm::write_libsvm(path, d);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : make_demo_file();
  std::printf("=== Private classification on %s ===\n", path.c_str());

  const svm::Dataset raw = svm::read_libsvm(path);
  std::printf("loaded %zu samples x %zu features\n", raw.size(), raw.dim());

  Rng rng(1);
  auto [train_raw, test_raw] = svm::train_test_split(raw, 0.7, rng);

  // The paper's preprocessing: per-feature min-max scaling to [-1, 1],
  // fitted on the training split only.
  svm::FeatureScaler scaler;
  scaler.fit(train_raw);
  const svm::Dataset train = scaler.transform(train_raw);
  const svm::Dataset test = scaler.transform(test_raw);

  // Pick C by 5-fold cross-validation.
  const std::vector<double> candidates{0.1, 1.0, 10.0, 100.0};
  const double c = svm::select_c(train, svm::Kernel::linear(), candidates, 5, rng);
  std::printf("cross-validated box constraint: C = %g\n", c);

  svm::SmoParams params;
  params.c = c;
  const auto model = svm::train_svm(train, svm::Kernel::linear(), params);
  std::printf("plain holdout accuracy: %.1f%%\n",
              100.0 * svm::accuracy(model.predict_all(test.x), test.y));

  // Serve the holdout privately and confirm equality.
  const auto profile =
      core::ClassificationProfile::make(train.dim(), model.kernel());
  const auto cfg = core::SchemeConfig::silent();
  core::ClassificationServer server(model, profile, cfg);
  core::ClassificationClient client(profile, cfg);
  const std::size_t probe = std::min<std::size_t>(40, test.size());
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(2);
        core::OtBundle ot(cfg, r);
        for (std::size_t q = 0; q < probe; ++q) {
          server.serve(ch, 1, r, &ot);
        }
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(3);
        core::OtBundle ot(cfg, r);
        std::size_t agree = 0;
        for (std::size_t i = 0; i < probe; ++i) {
          if (client.classify(ch, test.x[i], r, &ot) == model.predict(test.x[i])) {
            ++agree;
          }
        }
        return agree;
      });
  std::printf("private == plain on %zu/%zu probed holdout samples\n",
              outcome.b, probe);
  return 0;
}
