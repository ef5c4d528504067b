#include "ppds/core/attacks.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ppds/common/rng.hpp"
#include "ppds/math/monomial.hpp"
#include "ppds/math/vec.hpp"
#include "ppds/net/party.hpp"
#include "ppds/ompe/ompe.hpp"

namespace ppds::core {
namespace {

TEST(Attacks, ExactReconstructionFromTrueDistances) {
  // Fig. 6: without ra, dim+1 exact decision values give the model away.
  const math::Vec w{0.8, -0.6};
  const double b = 0.25;
  std::vector<math::Vec> samples{{0.1, 0.2}, {-0.5, 0.7}, {0.9, -0.3}};
  std::vector<double> values;
  for (const auto& t : samples) values.push_back(math::dot(w, t) + b);
  const ModelEstimate est = reconstruct_exact(samples, values);
  EXPECT_NEAR(est.w[0], w[0], 1e-10);
  EXPECT_NEAR(est.w[1], w[1], 1e-10);
  EXPECT_NEAR(est.b, b, 1e-10);
  EXPECT_LT(direction_error_degrees(est.w, w), 1e-6);
}

TEST(Attacks, ReconstructionNeedsEnoughPoints) {
  std::vector<math::Vec> samples{{0.1, 0.2}};
  std::vector<double> values{1.0};
  EXPECT_THROW(reconstruct_exact(samples, values), InvalidArgument);
}

TEST(Attacks, LeastSquaresEstimateRecoversUnamplifiedModel) {
  // Sanity check of the estimator itself: consistent observations are fit.
  Rng rng(1);
  const math::Vec w{1.2, -0.4, 0.3};
  const double b = -0.15;
  std::vector<math::Vec> samples;
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) {
    math::Vec t{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    values.push_back(math::dot(w, t) + b);
    samples.push_back(std::move(t));
  }
  const ModelEstimate est = estimate_hyperplane(samples, values);
  EXPECT_LT(direction_error_degrees(est.w, w), 0.1);
}

TEST(Attacks, AmplificationDefeatsEstimation) {
  // Fig. 5: with a fresh log-uniform ra per query, the fit rambles. With 50
  // samples the direction error should remain large while the unamplified
  // fit is essentially exact.
  Rng rng(2);
  const math::Vec w{0.6, 0.8};
  const double b = 0.1;
  std::vector<math::Vec> samples;
  std::vector<double> clean, amplified;
  for (int i = 0; i < 50; ++i) {
    math::Vec t{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const double d = math::dot(w, t) + b;
    clean.push_back(d);
    amplified.push_back(rng.log_uniform_positive() * d);
    samples.push_back(std::move(t));
  }
  const double clean_err =
      direction_error_degrees(estimate_hyperplane(samples, clean).w, w);
  const double amp_err =
      direction_error_degrees(estimate_hyperplane(samples, amplified).w, w);
  EXPECT_LT(clean_err, 0.1);
  EXPECT_GT(amp_err, 2.0);
}

TEST(Attacks, DirectionErrorIsSignInvariant) {
  const math::Vec w{1.0, 0.0};
  const math::Vec minus_w{-1.0, 0.0};
  EXPECT_NEAR(direction_error_degrees(minus_w, w), 0.0, 1e-9);
}

TEST(Attacks, DirectionErrorOrthogonalIs90) {
  EXPECT_NEAR(direction_error_degrees({1.0, 0.0}, {0.0, 1.0}), 90.0, 1e-9);
}

TEST(Attacks, EstimateValidatesInputs) {
  std::vector<math::Vec> samples{{1.0, 2.0}, {2.0, 1.0}};
  std::vector<double> values{1.0};
  EXPECT_THROW(estimate_hyperplane(samples, values), InvalidArgument);
}

/// The request bytes a real-backend receiver sends for \p alpha: all the
/// subset-enumeration attacker ever reads.
Bytes capture_ompe_request(const math::Vec& alpha,
                           const ompe::OmpeParams& params, std::uint64_t seed) {
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        ch.set_stage(net::Stage::kOmpeRequest);  // mirror the receiver
        Bytes request = ch.recv();
        ch.close();
        return request;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        crypto::LoopbackReceiver ot;
        try {
          return ompe::run_receiver(ch, alpha, params, ot, rng);
        } catch (const ProtocolError&) {
          return 0.0;  // channel closed after capture — expected
        }
      });
  return outcome.a;
}

// CHARACTERIZATION of a known leak, not a desired property: at the q=4, k=2
// shape of the silent and fast presets, a curious sender recovers the
// client's exact input from the request alone by trying all C(10, 5) = 252
// subsets and keeping the one whose interpolant passes a public plausibility
// check. The change that picks secure q and k must invert these tests
// (expect found == false within the trial budget).
TEST(OmpeInputRecovery, RecoversBoundedLinearInputAtPresetShape) {
  ompe::OmpeParams params;
  params.q = 4;
  params.k = 2;
  Rng rng(2718);
  math::Vec input(8);
  for (double& v : input) v = rng.uniform(0.0, 1.0);
  const Bytes request = capture_ompe_request(input, params, 31);
  const auto in_unit_box = [](const math::Vec& v) {
    for (double x : v) {
      if (x < 0.0 || x > 1.0) return false;
    }
    return true;
  };
  const OmpeInputRecovery got = recover_ompe_input(request, 4, in_unit_box);
  ASSERT_TRUE(got.found);
  EXPECT_LE(got.trials, 252u);
  ASSERT_EQ(got.alpha.size(), input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_NEAR(got.alpha[i], input[i], 1e-6) << "coordinate " << i;
  }
}

TEST(OmpeInputRecovery, RecoversMonomialFeatureInputAtPresetShape) {
  // The nonlinear pattern: the receiver sends the 44 degree-1..2 monomials
  // of an 8-dimensional sample, and the monomial relations tau_ij =
  // tau_i * tau_j are the attacker's plausibility check.
  ompe::OmpeParams params;
  params.q = 4;
  params.k = 2;
  const auto basis = math::monomials_up_to(8, 2);
  const math::MonomialDag dag = math::build_monomial_dag(8, 2);
  ASSERT_EQ(basis.size(), 44u);
  Rng rng(1618);
  math::Vec sample(8);
  for (double& v : sample) v = rng.uniform(-1.0, 1.0);
  const math::Vec features = math::monomial_transform(basis, sample);
  const Bytes request = capture_ompe_request(features, params, 47);
  const auto monomial_relations_hold = [&dag](const math::Vec& tau) {
    for (std::size_t j = 0; j < dag.size(); ++j) {
      if (dag.parent[j] == math::MonomialDag::kOne) continue;
      const double want = tau[dag.parent[j]] * tau[dag.var[j]];
      if (std::abs(tau[j] - want) > 1e-6 * (1.0 + std::abs(want))) return false;
    }
    return true;
  };
  const OmpeInputRecovery got =
      recover_ompe_input(request, 4, monomial_relations_hold);
  ASSERT_TRUE(got.found);
  EXPECT_LE(got.trials, 252u);
  ASSERT_EQ(got.alpha.size(), features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    EXPECT_NEAR(got.alpha[i], features[i], 1e-6) << "feature " << i;
  }
}

TEST(OmpeInputRecovery, RejectsRequestsItCannotRead) {
  ompe::OmpeParams params;
  params.q = 2;
  const Bytes request = capture_ompe_request({0.5, 0.25}, params, 5);
  const auto any = [](const math::Vec&) { return true; };
  EXPECT_THROW(recover_ompe_input(request, 3, any), InvalidArgument);
  params.backend = ompe::Backend::kField;
  const Bytes field_request = capture_ompe_request({0.5, 0.25}, params, 5);
  EXPECT_THROW(recover_ompe_input(field_request, 2, any), InvalidArgument);
}

}  // namespace
}  // namespace ppds::core
