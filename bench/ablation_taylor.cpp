/// ABLATION — Taylor truncation of the RBF and sigmoid kernels
/// (Section IV-B): the paper proposes approximating the infinite kernel
/// series "with a large number p". This bench measures, per truncation
/// order, (a) the decision-value approximation error of the expanded
/// polynomial against the exact kernel model and (b) the private-vs-plain
/// prediction agreement through the full protocol — showing where the
/// truncation starts flipping classifications.

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "ppds/core/classification.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/smo.hpp"

namespace {

using namespace ppds;

svm::Dataset radial_data(Rng& rng, std::size_t count) {
  // Data confined to [-0.5, 0.5]^2: the Taylor series of exp(-g||x-t||^2)
  // only converges usefully while g*||x-t||^2 stays small, exactly the
  // regime the paper's "large number p" remark implicitly assumes.
  svm::Dataset d;
  while (d.size() < count) {
    math::Vec x{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
    const double r2 = math::norm2(x);
    if (std::abs(r2 - 0.12) < 0.015) continue;
    d.push(std::move(x), r2 < 0.12 ? 1 : -1);
  }
  return d;
}

}  // namespace

int main() {
  bench::banner("ABLATION: Taylor truncation order for RBF/sigmoid kernels");
  Rng rng(99);
  const svm::Dataset train = radial_data(rng, 250);
  const svm::Dataset test = radial_data(rng, 120);

  const auto rbf = svm::Kernel::rbf(0.8);
  const auto model = svm::train_svm(train, rbf, {2.0});
  const double plain_acc = svm::accuracy(model.predict_all(test.x), test.y);
  std::printf("RBF model: %zu SVs, plain accuracy %.1f%%\n",
              model.num_support_vectors(), 100.0 * plain_acc);

  std::printf("\n%-6s | %12s | %16s\n", "order", "max |err|",
              "private==plain");
  bench::rule(44);
  for (unsigned order : {2u, 4u, 6u, 8u}) {
    const auto profile =
        core::ClassificationProfile::make(2, rbf, order);
    const auto poly = core::expand_decision_function(model, profile);
    double max_err = 0.0;
    for (const auto& t : test.x) {
      max_err = std::fmax(
          max_err, std::abs(poly.evaluate(t) - model.decision_value(t)));
    }

    auto cfg = core::SchemeConfig::silent();
    cfg.ompe.q = 1;  // m = q + 1 = 2 retrievals; the order widens the features
    core::ClassificationServer server(model, profile, cfg);
    core::ClassificationClient client(profile, cfg);
    const std::size_t probe = 60;
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng r(1);
          core::OtBundle ot(cfg, r);
          for (std::size_t q = 0; q < probe; ++q) {
            server.serve(ch, 1, r, &ot);
          }
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng r(2);
          core::OtBundle ot(cfg, r);
          std::size_t agree = 0;
          for (std::size_t i = 0; i < probe; ++i) {
            if (client.classify(ch, test.x[i], r, &ot) ==
                model.predict(test.x[i])) {
              ++agree;
            }
          }
          return agree;
        });
    std::printf("%-6u | %12.4e | %13zu/%zu\n", order, max_err, outcome.b,
                probe);
  }
  std::printf(
      "\nHigher truncation orders shrink the decision-value error and the\n"
      "private/plain disagreements near the boundary — at the price of a\n"
      "wider feature map (C(n + order, order) - 1 monomials per query; the\n"
      "OMPE round stays degree 1 with m = q + 1 retrievals). Outside\n"
      "the series' convergence region (gamma * ||x - t||^2 >~ 2) the\n"
      "truncation DIVERGES — a practical limit of the paper's Taylor remark\n"
      "that only the polynomial kernel avoids.\n");
  return 0;
}
