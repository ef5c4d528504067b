/// QUICKSTART — the library in ~60 lines.
///
/// Alice (a trainer) fits an SVM on her private data. Bob (a client) holds
/// a private sample. Bob learns only the class of his sample; Alice learns
/// nothing about the sample; Bob learns nothing about the model beyond one
/// randomized value per query.
///
/// Build & run:  cmake -B build -G Ninja && cmake --build build
///               ./build/examples/quickstart

#include <cstdio>

#include "ppds/core/session.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/smo.hpp"

int main() {
  using namespace ppds;

  // --- Alice's side: train a model on private data --------------------
  Rng data_rng(7);
  svm::Dataset train;
  while (train.size() < 400) {
    math::Vec x{data_rng.uniform(-1, 1), data_rng.uniform(-1, 1)};
    const double score = 0.7 * x[0] - 0.7 * x[1] + 0.1;
    if (std::abs(score) < 0.05) continue;  // margin gap
    train.push(std::move(x), score > 0 ? 1 : -1);
  }
  const svm::SvmModel model = svm::train_svm(train, svm::Kernel::linear());
  std::printf("Alice trained a linear SVM: %zu support vectors\n",
              model.num_support_vectors());

  // --- Public protocol agreement --------------------------------------
  // Both parties share: feature count, kernel type, scheme parameters.
  const auto profile = core::ClassificationProfile::make(2, model.kernel());
  // Secure defaults: the silent OT engine (one batched Naor-Pinkas seed
  // agreement, then hash/XOR transfers) at q=8, k=3.
  core::SchemeConfig config = core::SchemeConfig::secure_default();
  config.group = crypto::GroupId::kModp1024;  // demo-sized group

  core::ClassificationServer alice(model, profile, config);
  core::ClassificationClient bob(profile, config);

  // --- One private classification over the simulated network ----------
  // The session layer handshakes first: both sides verify a digest of the
  // agreed parameters before any private data flows.
  const std::vector<std::vector<double>> bobs_samples{{0.4, -0.3}};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& channel) {
        Rng rng(1);
        core::OtBundle ot(config, rng);  // one per connection
        core::serve_session(alice, profile, config, channel, rng,
                            bobs_samples.size(), &ot);
        return 0;
      },
      [&](net::Endpoint& channel) {
        Rng rng(2);
        core::OtBundle ot(config, rng);
        return core::classify_session(bob, profile, config, channel,
                                      bobs_samples, rng, &ot);
      });

  std::printf("Bob's sample (%.2f, %.2f) is class %+d\n", bobs_samples[0][0],
              bobs_samples[0][1], outcome.b[0]);
  std::printf("plain SVM agrees: %s\n",
              outcome.b[0] == model.predict(bobs_samples[0]) ? "yes" : "no");
  std::printf("wire traffic: Bob->Alice %llu bytes, Alice->Bob %llu bytes\n",
              static_cast<unsigned long long>(outcome.b_sent.bytes),
              static_cast<unsigned long long>(outcome.a_sent.bytes));
  return 0;
}
