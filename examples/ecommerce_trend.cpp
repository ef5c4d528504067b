/// E-COMMERCE SCENARIO — the paper's motivating application (Section I).
///
/// An e-commerce company (Alice) has learned a "sale trend" classifier from
/// its private sale records: given a clothing design's features, will it
/// sell? A clothes seller (Bob) wants to test whether a NEW DESIGN follows
/// the popular trend — without revealing the design to Alice, and without
/// Alice revealing her trend model.
///
/// Additionally, two companies want to scout each other as potential
/// business partners: they privately compare their trend models with the
/// isosceles-triangle similarity metric. Similar trends => similar markets.

#include <cstdio>
#include <string>

#include "ppds/core/classification.hpp"
#include "ppds/core/similarity.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/smo.hpp"

namespace {

using namespace ppds;

/// Design features: [price_band, seasonality, color_boldness, fit_slimness,
/// fabric_weight, pattern_complexity]. All scaled to [-1, 1].
constexpr std::size_t kFeatures = 6;

/// A company's private market: its customers prefer designs aligned with a
/// hidden taste vector; sales records reflect that.
svm::Dataset company_sales(const math::Vec& taste, double taste_bias,
                           std::size_t records, Rng& rng) {
  svm::Dataset sales;
  while (sales.size() < records) {
    math::Vec design(kFeatures);
    for (double& f : design) f = rng.uniform(-1.0, 1.0);
    const double appeal =
        math::dot(taste, design) + taste_bias + rng.normal(0.0, 0.15);
    sales.push(std::move(design), appeal > 0 ? 1 : -1);
  }
  return sales;
}

}  // namespace

int main() {
  std::printf("=== Private sale-trend classification & market matching ===\n");

  // Three companies with related but distinct markets.
  Rng rng(2026);
  const math::Vec taste_a{0.8, 0.4, -0.2, 0.3, -0.1, 0.2};
  const math::Vec taste_b{0.7, 0.5, -0.1, 0.35, -0.2, 0.15};  // close to A
  const math::Vec taste_c{-0.3, 0.2, 0.9, -0.5, 0.4, -0.6};   // different
  const auto records_a = company_sales(taste_a, 0.1, 1200, rng);
  const auto records_b = company_sales(taste_b, 0.12, 900, rng);
  const auto records_c = company_sales(taste_c, -0.05, 1000, rng);

  const auto model_a = svm::train_svm(records_a, svm::Kernel::linear());
  const auto model_b = svm::train_svm(records_b, svm::Kernel::linear());
  const auto model_c = svm::train_svm(records_c, svm::Kernel::linear());
  std::printf("companies trained their trend models (private assets)\n\n");

  // --- Part 1: a seller privately tests new designs against company A ---
  const auto profile =
      core::ClassificationProfile::make(kFeatures, svm::Kernel::linear());
  const auto cfg = core::SchemeConfig::silent();
  core::ClassificationServer trend_server(model_a, profile, cfg);
  core::ClassificationClient seller(profile, cfg);

  const std::vector<std::pair<std::string, math::Vec>> designs{
      {"bold summer dress", {0.6, 0.8, 0.4, 0.2, -0.5, 0.3}},
      {"heavy winter coat", {-0.4, -0.9, -0.2, -0.1, 0.9, -0.3}},
      {"slim budget jeans", {0.9, 0.0, -0.3, 0.8, 0.1, -0.6}},
  };
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(1);
        core::OtBundle ot(cfg, r);
        for (std::size_t q = 0; q < designs.size(); ++q) {
          trend_server.serve(ch, 1, r, &ot);
        }
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(2);
        core::OtBundle ot(cfg, r);
        std::vector<int> verdicts;
        for (const auto& [name, features] : designs) {
          verdicts.push_back(seller.classify(ch, features, r, &ot));
        }
        return verdicts;
      });
  std::printf("Seller's private design checks against company A's trend:\n");
  for (std::size_t i = 0; i < designs.size(); ++i) {
    std::printf("  %-18s -> %s\n", designs[i].first.c_str(),
                outcome.b[i] > 0 ? "ON trend (likely to sell)"
                                 : "off trend");
  }

  // --- Part 2: private market-similarity scouting ----------------------
  const core::DataSpace space;
  auto compare = [&](const svm::SvmModel& mine, const svm::SvmModel& theirs,
                     const char* label) {
    core::SimilarityServer srv(mine, space, cfg);
    core::SimilarityClient cli(theirs, space, cfg);
    auto result = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng r(3);
          core::OtBundle ot(cfg, r);
          srv.serve(ch, r, &ot);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng r(4);
          core::OtBundle ot(cfg, r);
          return cli.evaluate(ch, r, &ot);
        });
    std::printf("  %-8s 10^3*T = %8.3f\n", label, 1e3 * result.b);
    return result.b;
  };
  std::printf("\nPrivate market-similarity scouting (smaller T = closer):\n");
  const double t_ab = compare(model_a, model_b, "A vs B:");
  const double t_ac = compare(model_a, model_c, "A vs C:");
  std::printf("  => company A should partner with %s\n",
              t_ab < t_ac ? "B (similar market)" : "C");
  return 0;
}
