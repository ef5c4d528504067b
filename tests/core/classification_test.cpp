#include "ppds/core/classification.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "ppds/common/bytes.hpp"
#include "ppds/common/hex.hpp"
#include "ppds/core/session.hpp"
#include "ppds/crypto/sha256.hpp"
#include "ppds/data/synthetic.hpp"
#include "ppds/net/party.hpp"
#include "ppds/server/scenario.hpp"
#include "ppds/svm/smo.hpp"

namespace ppds::core {
namespace {

/// Classifies `count` samples privately and returns the raw randomized
/// values Bob obtains.
std::vector<double> private_values(const svm::SvmModel& model,
                                   const ClassificationProfile& profile,
                                   const SchemeConfig& cfg,
                                   const std::vector<math::Vec>& samples,
                                   std::uint64_t seed = 1) {
  ClassificationServer server(model, profile, cfg);
  ClassificationClient client(profile, cfg);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        server.serve(ch, samples.size(), rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed + 1);
        std::vector<double> values;
        for (const auto& s : samples) {
          values.push_back(client.query_value(ch, s, rng));
        }
        return values;
      });
  return outcome.b;
}

svm::SvmModel toy_linear_model() {
  return svm::SvmModel(svm::Kernel::linear(), {{0.8, -0.6}}, {1.0}, 0.1);
}

TEST(ClassificationProfile, LinearProfileIsIdentityTransform) {
  const auto profile =
      ClassificationProfile::make(5, svm::Kernel::linear());
  EXPECT_EQ(profile.poly_arity, 5u);
  EXPECT_TRUE(profile.monomial_dag.empty());
  const std::vector<double> t{1, 2, 3, 4, 5};
  EXPECT_EQ(profile.transform(t), t);
}

TEST(ClassificationProfile, PolynomialProfileBuildsMonomialBasis) {
  const auto profile =
      ClassificationProfile::make(3, svm::Kernel::paper_polynomial(3));
  // Degrees 1..3 over 3 vars: 3 + 6 + 10 = 19 monomials.
  EXPECT_EQ(profile.poly_arity, 19u);
  const auto tau = profile.transform({2.0, 1.0, 1.0});
  EXPECT_EQ(tau.size(), 19u);
}

TEST(ClassificationProfile, BatchTransformMatchesSingleBitwise) {
  // transform_batch sweeps the DAG eight samples at a time (SoA lanes);
  // every sample must still come out bit-identical to transform(), lane
  // blocks and the scalar tail alike (11 samples = one block + tail of 3).
  Rng rng(29);
  const auto profile =
      ClassificationProfile::make(4, svm::Kernel::paper_polynomial(3));
  std::vector<std::vector<double>> samples(11, std::vector<double>(4));
  for (auto& sample : samples) {
    for (auto& v : sample) v = rng.uniform(-2.0, 2.0);
  }
  const auto batch = profile.transform_batch(samples);
  ASSERT_EQ(batch.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(batch[i], profile.transform(samples[i])) << "sample " << i;
  }
}

TEST(ClassificationProfile, BatchTransformIdentityForLinearKernel) {
  const auto profile = ClassificationProfile::make(3, svm::Kernel::linear());
  const std::vector<std::vector<double>> samples{{1.0, 2.0, 3.0},
                                                 {-0.5, 0.25, 0.0}};
  EXPECT_EQ(profile.transform_batch(samples), samples);
}

TEST(ClassificationProfile, DagTransformMatchesNaiveBitwise) {
  // The profile's DAG transform replaced math::monomial_transform on the
  // client hot path; the two must agree BIT FOR BIT, or the protocol values
  // (and the exact field backend's fixed-point encodings) would drift.
  Rng rng(23);
  for (unsigned degree : {2u, 3u, 4u}) {
    const auto profile = ClassificationProfile::make(
        4, svm::Kernel::paper_polynomial(degree));
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> t(4);
      for (auto& v : t) v = rng.uniform(-2.0, 2.0);
      const auto via_dag = profile.transform(t);
      const auto naive = math::monomial_transform(
          math::monomials_up_to(4, profile.kernel.degree), t);
      ASSERT_EQ(via_dag.size(), naive.size());
      for (std::size_t j = 0; j < naive.size(); ++j) {
        EXPECT_EQ(via_dag[j], naive[j]) << "degree=" << degree << " j=" << j;
      }
    }
  }
}

/// SHA-256 over the DAG's parent array, then its var array (u32 little
/// endian).
std::string dag_hex(const math::MonomialDag& dag) {
  ByteWriter w;
  for (std::uint32_t up : dag.parent) w.u32(up);
  for (std::uint32_t v : dag.var) w.u32(v);
  return to_hex(crypto::sha256(w.data()));
}

TEST(ClassificationProfile, GoldenBasisDagAndDigest) {
  // Both parties derive the basis from (n, p) alone, so its DAG and its
  // digest are pinned bit for bit: the served a1a shape (123 features,
  // degree 3, 325,499 nodes) and a degree-6 RBF Taylor basis over 3
  // features, whose exponent runs are longer than 3.
  const auto a1a =
      ClassificationProfile::make(123, svm::Kernel::paper_polynomial(123));
  EXPECT_EQ(a1a.poly_arity, 325'499u);
  EXPECT_EQ(dag_hex(a1a.monomial_dag),
            "f450c395f7578befbedc26febefd0bf6523175aaeb2c617845d4143bf6339f9d");
  EXPECT_EQ(to_hex(protocol_digest(a1a, SchemeConfig::silent())),
            "8483ded2db04f7a3e95e9f5946bf71d962a14b3edff9e72c8200c45ef40ed64c");

  const auto rbf = ClassificationProfile::make(3, svm::Kernel::rbf(0.5), 6);
  EXPECT_EQ(rbf.poly_arity, 83u);
  EXPECT_EQ(dag_hex(rbf.monomial_dag),
            "6c605d27021e58666ad05dc651fb0ec3a4cc121dd8f9419aca29afb42a6540f6");
  EXPECT_EQ(to_hex(protocol_digest(rbf, SchemeConfig::silent())),
            "9b438501268c08443145a359dce3717d39a27a8105d6578fff59cebc4c49df2a");
}

TEST(ClassificationProfile, MadelonBasisRejected) {
  // 500 features at degree 3 is a 21M-monomial basis: make() refuses it
  // before building anything.
  EXPECT_THROW(
      ClassificationProfile::make(500, svm::Kernel::paper_polynomial(500)),
      InvalidArgument);
}

TEST(ClassificationProfile, SampleDimensionChecked) {
  const auto profile = ClassificationProfile::make(3, svm::Kernel::linear());
  EXPECT_THROW(profile.transform({1.0}), InvalidArgument);
}

TEST(ExpandDecision, LinearExpansionMatchesModel) {
  const auto model = toy_linear_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto poly = expand_decision_function(model, profile);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const math::Vec t{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    EXPECT_NEAR(poly.evaluate(t), model.decision_value(t), 1e-12);
  }
}

TEST(ExpandDecision, PolynomialExpansionMatchesKernelModel) {
  Rng rng(2);
  std::vector<math::Vec> svs;
  std::vector<double> coeffs;
  for (int s = 0; s < 5; ++s) {
    svs.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)});
    coeffs.push_back(rng.uniform(-2, 2));
  }
  const svm::SvmModel model(svm::Kernel::paper_polynomial(3), svs, coeffs, 0.4);
  const auto profile = ClassificationProfile::make(3, model.kernel());
  const auto poly = expand_decision_function(model, profile);
  for (int i = 0; i < 50; ++i) {
    const math::Vec t{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const auto tau = profile.transform(t);
    EXPECT_NEAR(poly.evaluate(tau), model.decision_value(t), 1e-10);
  }
}

TEST(ExpandDecision, InhomogeneousPolynomialKernel) {
  // b0 != 0 exercises the lower-degree monomials and the constant term.
  svm::Kernel kernel;
  kernel.type = svm::KernelType::kPolynomial;
  kernel.a0 = 0.5;
  kernel.b0 = 1.0;
  kernel.degree = 2;
  Rng rng(3);
  const svm::SvmModel model(kernel, {{0.3, -0.7}, {0.9, 0.1}}, {1.2, -0.4},
                            -0.2);
  const auto profile = ClassificationProfile::make(2, kernel);
  const auto poly = expand_decision_function(model, profile);
  for (int i = 0; i < 50; ++i) {
    const math::Vec t{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    EXPECT_NEAR(poly.evaluate(profile.transform(t)), model.decision_value(t),
                1e-10);
  }
}

TEST(ExpandDecision, RbfTaylorApproximation) {
  Rng rng(4);
  const svm::SvmModel model(svm::Kernel::rbf(0.5), {{0.2, -0.3}, {-0.5, 0.4}},
                            {1.0, -1.0}, 0.05);
  const auto profile = ClassificationProfile::make(2, model.kernel(), 12);
  const auto poly = expand_decision_function(model, profile);
  // Truncated Taylor of exp: accuracy degrades with gamma * ||x - t||^2,
  // so assert the band the truncation order actually delivers.
  for (int i = 0; i < 50; ++i) {
    const math::Vec t{rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)};
    EXPECT_NEAR(poly.evaluate(t), model.decision_value(t), 2e-2);
  }
}

TEST(ExpandDecision, SigmoidTaylorApproximation) {
  Rng rng(5);
  const svm::SvmModel model(svm::Kernel::sigmoid(0.3, 0.1),
                            {{0.4, 0.2}, {-0.1, -0.6}}, {0.8, 0.7}, -0.1);
  const auto profile = ClassificationProfile::make(2, model.kernel(), 9);
  const auto poly = expand_decision_function(model, profile);
  for (int i = 0; i < 50; ++i) {
    const math::Vec t{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    EXPECT_NEAR(poly.evaluate(t), model.decision_value(t), 5e-3);
  }
}

TEST(ExpandDecision, KernelMismatchRejected) {
  const auto model = toy_linear_model();
  const auto profile =
      ClassificationProfile::make(2, svm::Kernel::paper_polynomial(2));
  EXPECT_THROW(expand_decision_function(model, profile), InvalidArgument);
}

/// SHA-256 over the little-endian bytes of the coefficients, then the
/// constant.
std::string expansion_hex(const math::LinearExpansion& expansion) {
  ByteWriter w;
  for (double c : expansion.coeffs) w.f64(c);
  w.f64(expansion.constant);
  return to_hex(crypto::sha256(w.data()));
}

TEST(Classification, GoldenDecisionCoefficients) {
  // The server's weights over the monomial basis, pinned bit for bit: the
  // paper kernel of the diabetes:poly scenario (b0 = 0: only degree-p
  // monomials are nonzero), and an inhomogeneous degree-3 kernel over four
  // features (b0 = 1: every degree, and the (p - i)! factor).
  const server::Scenario s = server::Scenario::make("diabetes:poly", 2029);
  const math::LinearExpansion paper =
      expand_decision_coefficients(s.server_model, s.profile);
  EXPECT_EQ(paper.coeffs.size(), s.profile.poly_arity);
  EXPECT_EQ(expansion_hex(paper),
            "eb408e30b550f1b0b9da83d8ef62e998d1e15f92754d66c645bc73604eb9588f");

  svm::Kernel kernel;
  kernel.type = svm::KernelType::kPolynomial;
  kernel.a0 = 0.3;
  kernel.b0 = 1.0;
  kernel.degree = 3;
  Rng rng(31);
  std::vector<math::Vec> svs(6, math::Vec(4));
  std::vector<double> cs(svs.size());
  for (std::size_t s_i = 0; s_i < svs.size(); ++s_i) {
    for (double& v : svs[s_i]) v = rng.uniform(-1.0, 1.0);
    cs[s_i] = rng.uniform(-2.0, 2.0);
  }
  const svm::SvmModel model(kernel, svs, cs, -0.35);
  const math::LinearExpansion inhomogeneous = expand_decision_coefficients(
      model, ClassificationProfile::make(4, kernel));
  EXPECT_EQ(inhomogeneous.coeffs.size(), 4u + 10u + 20u);
  EXPECT_EQ(expansion_hex(inhomogeneous),
            "54ad1520393891b641cbc48e2f76ff00fc06f40562e782b401decd6ac117ff24");
}

TEST(PrivateClassification, SignsMatchPlainPredictionsLinear) {
  const auto model = toy_linear_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  Rng rng(10);
  std::vector<math::Vec> samples;
  for (int i = 0; i < 40; ++i) {
    samples.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  const auto values = private_values(model, profile, cfg, samples);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(values[i] >= 0 ? 1 : -1, model.predict(samples[i])) << i;
  }
}

TEST(PrivateClassification, SignsMatchPlainPredictionsNonlinear) {
  Rng rng(11);
  std::vector<math::Vec> svs;
  std::vector<double> coeffs;
  for (int s = 0; s < 4; ++s) {
    svs.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)});
    coeffs.push_back(rng.uniform(-1, 1));
  }
  const svm::SvmModel model(svm::Kernel::paper_polynomial(3), svs, coeffs, 0.02);
  const auto profile = ClassificationProfile::make(3, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  std::vector<math::Vec> samples;
  for (int i = 0; i < 25; ++i) {
    samples.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  const auto values = private_values(model, profile, cfg, samples, 77);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(values[i] >= 0 ? 1 : -1, model.predict(samples[i])) << i;
  }
}

TEST(PrivateClassification, FieldBackendExactSigns) {
  const auto model = toy_linear_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  auto cfg = SchemeConfig::fast_simulation();
  cfg.ompe.backend = ompe::Backend::kField;
  Rng rng(12);
  std::vector<math::Vec> samples;
  for (int i = 0; i < 30; ++i) {
    samples.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  const auto values = private_values(model, profile, cfg, samples, 33);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(values[i] >= 0 ? 1 : -1, model.predict(samples[i])) << i;
  }
}

TEST(PrivateClassification, AmplifiedValuesVaryAcrossQueries) {
  // Level-2 privacy lever: the same sample classified twice returns
  // different randomized magnitudes (fresh ra) with the same sign.
  const auto model = toy_linear_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  const math::Vec sample{0.5, 0.3};
  const std::vector<math::Vec> twice{sample, sample};
  const auto values = private_values(model, profile, cfg, twice, 55);
  EXPECT_EQ(values[0] >= 0, values[1] >= 0);
  EXPECT_GT(std::abs(values[0] - values[1]), 1e-9);
}

TEST(PrivateClassification, ValueIsRaTimesDecision) {
  // What Bob gets is exactly ra * d(t) for some positive ra.
  const auto model = toy_linear_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  const math::Vec sample{0.4, -0.9};
  const auto values =
      private_values(model, profile, cfg, {sample}, 66);
  const double ratio = values[0] / model.decision_value(sample);
  EXPECT_GT(ratio, std::exp2(-4.0) * 0.9);
  EXPECT_LT(ratio, std::exp2(4.0) * 1.1);
}

TEST(PrivateClassification, PrecomputedEngineBatchMatchesPlain) {
  // The offline/online split: one offline OT pool, then a batch of queries
  // whose online phase contains no public-key operations.
  const auto model = toy_linear_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  SchemeConfig cfg;
  cfg.ot_engine = OtEngine::kPrecomputed;
  cfg.group = crypto::GroupId::kModp1024;
  cfg.ompe.q = 2;
  cfg.ompe.k = 2;
  ClassificationServer server(model, profile, cfg);
  ClassificationClient client(profile, cfg);
  Rng sample_rng(21);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 6; ++i) {
    samples.push_back({sample_rng.uniform(-1, 1), sample_rng.uniform(-1, 1)});
  }
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(22);
        server.serve(ch, samples.size(), rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(23);
        return client.classify_batch(ch, samples, rng);
      });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i])) << i;
  }
}

TEST(PrivateClassification, BatchApiMatchesSingleQueries) {
  const auto model = toy_linear_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  ClassificationServer server(model, profile, cfg);
  ClassificationClient client(profile, cfg);
  std::vector<std::vector<double>> samples{{0.2, 0.3}, {-0.6, 0.1}};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(31);
        server.serve(ch, samples.size(), rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(32);
        return client.classify_batch(ch, samples, rng);
      });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i]));
  }
}

TEST(PrivateClassification, RbfTaylorEndToEnd) {
  // RBF kernel through the full protocol: the Taylor-expanded polynomial is
  // served via OMPE as a linear form over its monomial basis; predictions
  // match the exact kernel model away from the truncation-error band around
  // the boundary.
  Rng rng(41);
  std::vector<math::Vec> svs;
  std::vector<double> coeffs;
  for (int s = 0; s < 5; ++s) {
    svs.push_back({rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)});
    coeffs.push_back(rng.uniform(-1, 1));
  }
  const svm::SvmModel model(svm::Kernel::rbf(0.8), svs, coeffs, 0.05);
  const auto profile = ClassificationProfile::make(2, model.kernel(), 8);
  const auto poly = expand_decision_function(model, profile);
  auto cfg = SchemeConfig::fast_simulation();
  cfg.ompe.q = 1;  // m = 2 over the 44 monomials of degree <= 8
  ClassificationServer server(model, profile, cfg);
  ClassificationClient client(profile, cfg);
  // Only probe samples whose decision value clears the truncation error.
  std::vector<math::Vec> samples;
  while (samples.size() < 20) {
    math::Vec t{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
    if (std::abs(model.decision_value(t)) < 0.05) continue;
    samples.push_back(std::move(t));
  }
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(42);
        server.serve(ch, samples.size(), r);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(43);
        std::vector<int> preds;
        for (const auto& t : samples) preds.push_back(client.classify(ch, t, r));
        return preds;
      });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i])) << i;
  }
}

TEST(PrivateClassification, SigmoidTaylorEndToEnd) {
  Rng rng(51);
  std::vector<math::Vec> svs;
  std::vector<double> coeffs;
  for (int s = 0; s < 4; ++s) {
    svs.push_back({rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)});
    coeffs.push_back(rng.uniform(-1, 1));
  }
  const svm::SvmModel model(svm::Kernel::sigmoid(0.4, 0.05), svs, coeffs,
                            -0.02);
  const auto profile = ClassificationProfile::make(2, model.kernel(), 9);
  auto cfg = SchemeConfig::fast_simulation();
  cfg.ompe.q = 1;
  ClassificationServer server(model, profile, cfg);
  ClassificationClient client(profile, cfg);
  std::vector<math::Vec> samples;
  while (samples.size() < 20) {
    math::Vec t{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (std::abs(model.decision_value(t)) < 0.03) continue;
    samples.push_back(std::move(t));
  }
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(52);
        server.serve(ch, samples.size(), r);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(53);
        std::vector<int> preds;
        for (const auto& t : samples) preds.push_back(client.classify(ch, t, r));
        return preds;
      });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i])) << i;
  }
}

TEST(PrivateClassification, TrainedModelEndToEnd) {
  // Real trained SVM on a synthetic dataset, full private pipeline.
  const auto spec = *data::spec_by_name("diabetes");
  auto [train, test] = data::generate(spec);
  const auto model =
      svm::train_svm(train, svm::Kernel::linear(), {spec.c_linear});
  const auto profile = ClassificationProfile::make(spec.dim, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  std::vector<math::Vec> samples(test.x.begin(), test.x.begin() + 30);
  const auto values = private_values(model, profile, cfg, samples, 88);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(values[i] >= 0 ? 1 : -1, model.predict(samples[i]));
  }
}

}  // namespace
}  // namespace ppds::core
