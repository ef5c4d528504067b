#include <gtest/gtest.h>

#include <cmath>

#include "ppds/core/attacks.hpp"
#include "ppds/core/classification.hpp"
#include "ppds/core/similarity.hpp"
#include "ppds/data/kstest.hpp"
#include "ppds/data/synthetic.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/smo.hpp"
#include "../support/loopback_ot.hpp"

/// Integration tests spanning the full pipeline: synthetic data -> SMO
/// training -> private protocols over the simulated network -> outputs
/// matching the plaintext baselines. These are the code paths every
/// experiment binary exercises.

namespace ppds {
namespace {

std::optional<data::DatasetSpec> spec_or_die() {
  return data::spec_by_name("diabetes");
}

TEST(EndToEnd, Fig7PipelinePrivateEqualsPlainLinear) {
  // The Fig. 7 claim in miniature: on a real trained model, the private
  // pipeline reproduces the plain SVM's predictions exactly.
  const auto spec = *data::spec_by_name("breast-cancer");
  auto [train, test] = data::generate(spec);
  const auto model =
      svm::train_svm(train, svm::Kernel::linear(), {spec.c_linear});
  const auto profile =
      core::ClassificationProfile::make(spec.dim, model.kernel());
  const auto cfg = core::SchemeConfig::silent();
  core::ClassificationServer server(model, profile, cfg);
  core::ClassificationClient client(profile, cfg);
  const std::size_t count = 40;
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        core::OtBundle ot = test::loopback_bundle();
        server.serve(ch, count, rng, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        core::OtBundle ot = test::loopback_bundle();
        std::vector<int> preds;
        for (std::size_t i = 0; i < count; ++i) {
          preds.push_back(client.classify(ch, test.x[i], rng, &ot));
        }
        return preds;
      });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(test.x[i])) << i;
  }
}

TEST(EndToEnd, Fig8PipelinePrivateEqualsPlainNonlinear) {
  const auto spec = *data::spec_by_name("diabetes");
  auto [train, test] = data::generate(spec);
  const auto model = svm::train_svm(
      train, svm::Kernel::paper_polynomial(spec.dim), {spec.c_poly});
  const auto profile =
      core::ClassificationProfile::make(spec.dim, model.kernel());
  auto cfg = core::SchemeConfig::silent();
  cfg.ompe.q = 2;  // keep m = pq+1 = 7 small: 120 monomial variates
  core::ClassificationServer server(model, profile, cfg);
  core::ClassificationClient client(profile, cfg);
  const std::size_t count = 20;
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(3);
        core::OtBundle ot = test::loopback_bundle();
        server.serve(ch, count, rng, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(4);
        core::OtBundle ot = test::loopback_bundle();
        std::vector<int> preds;
        for (std::size_t i = 0; i < count; ++i) {
          preds.push_back(client.classify(ch, test.x[i], rng, &ot));
        }
        return preds;
      });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(test.x[i])) << i;
  }
}

TEST(EndToEnd, Table2PipelineSimilarityOrderingMatchesKs) {
  // Table II in miniature: split a diabetes-like pool into subsets, compare
  // all pairs by (a) the K-S reference and (b) the private metric T; the
  // most-similar pair under T should be among the most-similar under K-S.
  const auto spec = *spec_or_die();
  Rng rng(5);
  const auto pool = data::generate_pool(spec, 768, 42);
  const auto subsets = svm::split_subsets(pool, 4, rng);
  const core::DataSpace space;
  const auto cfg = core::SchemeConfig::silent();

  // Train a linear model per subset.
  std::vector<svm::SvmModel> models;
  for (const auto& subset : subsets) {
    models.push_back(svm::train_svm(subset, svm::Kernel::linear()));
  }
  std::vector<double> t_values, ks_values;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      core::SimilarityServer server(models[i], space, cfg);
      core::SimilarityClient client(models[j], space, cfg);
      auto outcome = net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng r(10 + i * 4 + j);
            core::OtBundle ot = test::loopback_bundle();
            server.serve(ch, r, &ot);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng r(20 + i * 4 + j);
            core::OtBundle ot = test::loopback_bundle();
            return client.evaluate(ch, r, &ot);
          });
      t_values.push_back(outcome.b);
      ks_values.push_back(data::ks_compare(subsets[i], subsets[j]).average_d);
    }
  }
  // All six pairs computed; values finite and nonnegative.
  ASSERT_EQ(t_values.size(), 6u);
  for (double t : t_values) {
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GE(t, 0.0);
  }
  // Same-distribution subsets: both measures should be small; exact
  // ordering agreement is noisy at this sample size, but the private T must
  // agree with its own plaintext baseline pair-by-pair (checked next).
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      const double plain =
          core::ordinary_similarity(models[i], models[j], space);
      core::SimilarityServer server(models[i], space, cfg);
      core::SimilarityClient client(models[j], space, cfg);
      auto outcome = net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng r(30 + i * 4 + j);
            core::OtBundle ot = test::loopback_bundle();
            server.serve(ch, r, &ot);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng r(40 + i * 4 + j);
            core::OtBundle ot = test::loopback_bundle();
            return client.evaluate(ch, r, &ot);
          });
      EXPECT_NEAR(outcome.b, plain, 1e-5 + 1e-3 * plain);
    }
  }
}

TEST(EndToEnd, Level2PrivacyAttackFailsAgainstProtocol) {
  // Fig. 5 against the REAL protocol (not a simulation of it): collude over
  // 50 private classification results; the fitted model's direction error
  // stays large, while reconstruction from unprotected values would be exact.
  const auto spec = *data::spec_by_name("breast-cancer");
  auto [train, test] = data::generate(spec);
  const auto model =
      svm::train_svm(train, svm::Kernel::linear(), {spec.c_linear});
  const auto profile =
      core::ClassificationProfile::make(spec.dim, model.kernel());
  const auto cfg = core::SchemeConfig::silent();
  core::ClassificationServer server(model, profile, cfg);
  core::ClassificationClient client(profile, cfg);
  const std::size_t count = 50;
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(6);
        core::OtBundle ot = test::loopback_bundle();
        server.serve(ch, count, rng, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(7);
        core::OtBundle ot = test::loopback_bundle();
        std::vector<double> values;
        for (std::size_t i = 0; i < count; ++i) {
          values.push_back(client.query_value(ch, test.x[i], rng, &ot));
        }
        return values;
      });
  std::vector<math::Vec> samples(test.x.begin(), test.x.begin() + count);
  const auto estimate = core::estimate_hyperplane(samples, outcome.b);
  const auto truth = model.linear_weights();
  EXPECT_GT(core::direction_error_degrees(estimate.w, truth), 2.0);

  // Control: the same attack on unprotected decision values succeeds.
  std::vector<double> unprotected;
  for (const auto& s : samples) unprotected.push_back(model.decision_value(s));
  const auto exact = core::estimate_hyperplane(samples, unprotected);
  EXPECT_LT(core::direction_error_degrees(exact.w, truth), 0.5);
}

TEST(EndToEnd, CommunicationCostAccounted) {
  // Every protocol run reports nonzero, plausible traffic in both
  // directions — the distributed-systems measurement layer works.
  const auto model =
      svm::SvmModel(svm::Kernel::linear(), {{0.6, -0.8}}, {1.0}, 0.0);
  const auto profile = core::ClassificationProfile::make(2, model.kernel());
  const auto cfg = core::SchemeConfig::silent();
  core::ClassificationServer server(model, profile, cfg);
  core::ClassificationClient client(profile, cfg);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(8);
        core::OtBundle ot = test::loopback_bundle();
        server.serve(ch, 1, rng, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(9);
        core::OtBundle ot = test::loopback_bundle();
        return client.classify(ch, {0.3, 0.4}, rng, &ot);
      });
  EXPECT_GT(outcome.a_sent.bytes, 0u);
  EXPECT_GT(outcome.b_sent.bytes, outcome.a_sent.bytes);  // covers dominate
}

TEST(EndToEnd, ModelSerializationAcrossParties) {
  // A trainer can persist its asset and reload it bit-exactly — decision
  // values of the reloaded model match, so protocols behave identically.
  const auto spec = *data::spec_by_name("australian");
  auto [train, test] = data::generate(spec);
  const auto model = svm::train_svm(train, svm::Kernel::linear());
  const auto reloaded = svm::SvmModel::deserialize(model.serialize());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(reloaded.decision_value(test.x[i]),
                     model.decision_value(test.x[i]));
  }
}

}  // namespace
}  // namespace ppds
