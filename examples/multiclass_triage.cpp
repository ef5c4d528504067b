/// MULTICLASS TRIAGE — one-vs-one private classification (library
/// extension beyond the paper's binary scheme).
///
/// A telehealth provider (Alice) trained a THREE-WAY triage model from its
/// case records: discharge / observe / escalate. A partner clinic (Bob)
/// triages incoming patients without revealing their vitals; the provider
/// never reveals the triage model. Each of the K(K-1)/2 pairwise decisions
/// is exactly the paper's binary protocol; Bob tallies the votes locally.

#include <cstdio>

#include "ppds/core/multiclass.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/validation.hpp"

namespace {

using namespace ppds;

constexpr int kDischarge = 0;
constexpr int kObserve = 1;
constexpr int kEscalate = 2;

const char* label_name(int label) {
  switch (label) {
    case kDischarge:
      return "discharge";
    case kObserve:
      return "observe";
    case kEscalate:
      return "ESCALATE";
  }
  return "?";
}

/// Vitals: [heart_rate, blood_pressure, temperature, oxygen_sat], scaled.
svm::MulticlassDataset case_records(Rng& rng, std::size_t count) {
  svm::MulticlassDataset d;
  while (d.size() < count) {
    math::Vec v(4);
    for (double& f : v) f = rng.uniform(-1.0, 1.0);
    // Severity is a latent score of the vitals.
    const double severity =
        0.5 * v[0] + 0.4 * v[1] + 0.3 * v[2] - 0.6 * v[3] +
        rng.normal(0.0, 0.1);
    const int label = severity < -0.3   ? kDischarge
                      : severity < 0.35 ? kObserve
                                        : kEscalate;
    d.push(std::move(v), label);
  }
  return d;
}

}  // namespace

int main() {
  std::printf("=== Private three-way triage (one-vs-one composition) ===\n");
  Rng rng(31337);
  const auto records = case_records(rng, 1500);
  const auto model =
      svm::MulticlassModel::train(records, svm::Kernel::linear());
  std::printf("provider model: %zu classes, %zu pairwise SVMs\n",
              model.num_classes(), model.pairs().size());

  // Plain holdout accuracy, for reference.
  const auto holdout = case_records(rng, 400);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < holdout.size(); ++i) {
    if (model.predict(holdout.x[i]) == holdout.y[i]) ++hits;
  }
  std::printf("holdout accuracy: %.1f%%\n",
              100.0 * static_cast<double>(hits) / holdout.size());

  const auto profile =
      core::ClassificationProfile::make(4, svm::Kernel::linear());
  const auto cfg = core::SchemeConfig::silent();
  core::MulticlassServer provider(model, profile, cfg);
  core::MulticlassClient clinic(model, profile, cfg);

  const std::vector<std::pair<const char*, math::Vec>> patients{
      {"stable post-op", {-0.6, -0.4, -0.2, 0.8}},
      {"fluctuating BP", {0.2, 0.6, 0.1, 0.1}},
      {"septic pattern", {0.9, 0.7, 0.8, -0.8}},
  };
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(1);
        core::OtBundle ot(cfg, r);
        provider.serve(ch, patients.size(), r, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(2);
        core::OtBundle ot(cfg, r);
        std::vector<int> verdicts;
        for (const auto& [name, vitals] : patients) {
          verdicts.push_back(clinic.classify(ch, vitals, r, &ot));
        }
        return verdicts;
      });

  std::printf("\nprivate triage verdicts (vitals never leave the clinic):\n");
  for (std::size_t i = 0; i < patients.size(); ++i) {
    const int plain = model.predict(patients[i].second);
    std::printf("  %-16s -> %-9s (plain model %s)\n", patients[i].first,
                label_name(outcome.b[i]),
                outcome.b[i] == plain ? "agrees" : "DISAGREES");
  }
  return 0;
}
