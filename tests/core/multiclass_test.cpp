#include "ppds/core/multiclass.hpp"

#include <gtest/gtest.h>

#include "ppds/crypto/group.hpp"
#include "ppds/net/party.hpp"
#include "../support/loopback_ot.hpp"

namespace ppds::core {
namespace {

svm::MulticlassDataset three_blobs(Rng& rng, std::size_t per_class) {
  const struct {
    double cx, cy;
    int label;
  } centers[] = {{-0.6, -0.6, 0}, {0.7, -0.5, 1}, {0.0, 0.7, 2}};
  svm::MulticlassDataset d;
  for (const auto& c : centers) {
    for (std::size_t i = 0; i < per_class; ++i) {
      d.push({c.cx + rng.normal(0, 0.1), c.cy + rng.normal(0, 0.1)}, c.label);
    }
  }
  return d;
}

TEST(PrivateMulticlass, MatchesPlainPredictions) {
  Rng rng(1);
  const auto train = three_blobs(rng, 50);
  const auto model =
      svm::MulticlassModel::train(train, svm::Kernel::linear());
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const auto cfg = SchemeConfig::silent();
  MulticlassServer server(model, profile, cfg);
  MulticlassClient client(model, profile, cfg);
  EXPECT_EQ(server.num_pairs(), 3u);

  Rng sample_rng(2);
  std::vector<math::Vec> samples;
  for (int i = 0; i < 15; ++i) {
    samples.push_back({sample_rng.uniform(-1, 1), sample_rng.uniform(-1, 1)});
  }
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(3);
        OtBundle ot = test::loopback_bundle();
        server.serve(ch, samples.size(), r, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(4);
        OtBundle ot = test::loopback_bundle();
        std::vector<int> labels;
        for (const auto& s : samples) {
          labels.push_back(client.classify(ch, s, r, &ot));
        }
        return labels;
      });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i])) << i;
  }
}

TEST(PrivateMulticlass, NoncontiguousLabelsRoundTrip) {
  Rng rng(5);
  svm::MulticlassDataset train;
  for (int i = 0; i < 240; ++i) {
    math::Vec x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const int label = x[0] > 0.2 ? 7 : (x[1] > 0 ? -3 : 42);
    train.push(std::move(x), label);
  }
  const auto model =
      svm::MulticlassModel::train(train, svm::Kernel::linear());
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const auto cfg = SchemeConfig::silent();
  MulticlassServer server(model, profile, cfg);
  MulticlassClient client(model, profile, cfg);
  const std::vector<math::Vec> samples{{0.8, 0.0}, {-0.5, 0.8}, {-0.5, -0.8}};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(6);
        OtBundle ot = test::loopback_bundle();
        server.serve(ch, samples.size(), r, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(7);
        OtBundle ot = test::loopback_bundle();
        std::vector<int> labels;
        for (const auto& s : samples) {
          labels.push_back(client.classify(ch, s, r, &ot));
        }
        return labels;
      });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i]));
  }
}

/// Full exponentiations (both parties) of private multiclass queries over
/// one silent bundle per side, with the labels they returned.
std::pair<std::uint64_t, std::vector<int>> multiclass_exps(
    const svm::MulticlassModel& model, const ClassificationProfile& profile,
    const SchemeConfig& cfg, const std::vector<math::Vec>& samples) {
  const MulticlassServer server(model, profile, cfg);
  const MulticlassClient client(model, profile, cfg);
  crypto::reset_exp_counters();
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(9);
        OtBundle ot(cfg, r);
        server.serve(ch, samples.size(), r, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(10);
        OtBundle ot(cfg, r);
        std::vector<int> labels;
        for (const auto& s : samples) {
          labels.push_back(client.classify(ch, s, r, &ot));
        }
        return labels;
      });
  return {crypto::exp_counters().full, outcome.b};
}

TEST(PrivateMulticlass, SilentEngineMatchesPlainVoteWithOneSeedAgreement) {
  Rng rng(8);
  const auto train = three_blobs(rng, 20);
  const auto model =
      svm::MulticlassModel::train(train, svm::Kernel::linear());
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  SchemeConfig cfg = SchemeConfig::silent();
  cfg.group = crypto::GroupId::kModp1024;
  // Build the shared generator table before any counting.
  (void)crypto::shared_group(cfg.group).pow_g(mpz_class(3));

  // One binary query pays exactly one seed agreement's full exponentiations.
  const svm::SvmModel& binary = model.pairs().front().model;
  const ClassificationServer server(binary, profile, cfg);
  const ClassificationClient client(profile, cfg);
  const math::Vec probe{0.1, 0.2};
  crypto::reset_exp_counters();
  (void)net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(11);
        OtBundle ot(cfg, r);
        server.serve(ch, 1, r, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(12);
        OtBundle ot(cfg, r);
        return client.classify(ch, probe, r, &ot);
      });
  const std::uint64_t seed_agreement = crypto::exp_counters().full;
  ASSERT_GT(seed_agreement, 0u);

  // A multiclass query over all three class pairs pays the same bill, so
  // does a connection of several queries, and every query returns the
  // plaintext vote.
  ASSERT_EQ(model.pairs().size(), 3u);
  const std::vector<math::Vec> samples{{-0.6, -0.6}, {0.7, -0.5}, {0.0, 0.7}};
  const auto [one_exps, one_labels] =
      multiclass_exps(model, profile, cfg, {samples.front()});
  EXPECT_EQ(one_exps, seed_agreement);
  EXPECT_EQ(one_labels.front(), model.predict(samples.front()));
  const auto [all_exps, all_labels] =
      multiclass_exps(model, profile, cfg, samples);
  EXPECT_EQ(all_exps, seed_agreement);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(all_labels[i], model.predict(samples[i])) << i;
  }
}

}  // namespace
}  // namespace ppds::core
