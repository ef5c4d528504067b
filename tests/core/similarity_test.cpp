#include "ppds/core/similarity.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ppds/net/party.hpp"
#include "../support/loopback_ot.hpp"

namespace ppds::core {
namespace {

svm::SvmModel linear_model(const math::Vec& w, double b) {
  return svm::SvmModel(svm::Kernel::linear(), {w}, {1.0}, b);
}

/// One private evaluation over loopback OT bundles, or over silent ones
/// when \p silent_ot is set.
double private_similarity(const svm::SvmModel& alice, const svm::SvmModel& bob,
                          const DataSpace& space, const SchemeConfig& cfg,
                          std::uint64_t seed = 1, bool silent_ot = false) {
  SimilarityServer server(alice, space, cfg);
  SimilarityClient client(bob, space, cfg);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        OtBundle ot = silent_ot ? OtBundle(cfg, rng) : test::loopback_bundle();
        server.serve(ch, rng, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed + 1);
        OtBundle ot = silent_ot ? OtBundle(cfg, rng) : test::loopback_bundle();
        return client.evaluate(ch, rng, &ot);
      });
  return outcome.b;
}

TEST(BoundaryPoints, AxisAlignedPlane) {
  // x0 = 0 inside [-1,1]^2: boundary points where the line meets the box
  // edges. Enumeration covers each free dimension at corner assignments.
  const DataSpace space;
  const auto pts = linear_boundary_points({1.0, 0.0}, 0.0, space);
  ASSERT_FALSE(pts.empty());
  for (const auto& p : pts) {
    EXPECT_NEAR(p[0], 0.0, 1e-12);
    EXPECT_NEAR(std::abs(p[1]), 1.0, 1e-12);
  }
  const auto centroid = bounded_centroid(pts);
  ASSERT_TRUE(centroid.has_value());
  EXPECT_NEAR((*centroid)[0], 0.0, 1e-12);
  EXPECT_NEAR((*centroid)[1], 0.0, 1e-12);
}

TEST(BoundaryPoints, DiagonalPlaneCentroid) {
  const DataSpace space;
  // x + y = 0: crossings at (-1,1) and (1,-1) (each found twice).
  const auto pts = linear_boundary_points({1.0, 1.0}, 0.0, space);
  const auto centroid = bounded_centroid(pts);
  ASSERT_TRUE(centroid.has_value());
  EXPECT_NEAR((*centroid)[0], 0.0, 1e-12);
  EXPECT_NEAR((*centroid)[1], 0.0, 1e-12);
}

TEST(BoundaryPoints, PlaneOutsideBoxYieldsNone) {
  const DataSpace space;
  const auto pts = linear_boundary_points({1.0, 0.0}, 5.0, space);
  EXPECT_TRUE(pts.empty());
  EXPECT_FALSE(bounded_centroid(pts).has_value());
}

TEST(BoundaryPoints, ShiftedPlaneCentroidOffset) {
  const DataSpace space;
  const auto pts = linear_boundary_points({1.0, 0.0}, -0.5, space);
  const auto centroid = bounded_centroid(pts);
  ASSERT_TRUE(centroid.has_value());
  EXPECT_NEAR((*centroid)[0], 0.5, 1e-12);
}

TEST(BoundaryPoints, DimensionGuard) {
  const DataSpace space;
  EXPECT_THROW(linear_boundary_points(math::Vec(25, 1.0), 0.0, space),
               InvalidArgument);
}

TEST(BoundaryPoints, KernelSurfaceMatchesLinearForLinearModel) {
  const DataSpace space;
  const auto model = linear_model({1.0, 0.5}, 0.2);
  const auto linear_pts =
      linear_boundary_points(model.linear_weights(), model.bias(), space);
  const auto kernel_pts = kernel_boundary_points(model, space);
  const auto c1 = bounded_centroid(linear_pts);
  const auto c2 = bounded_centroid(kernel_pts);
  ASSERT_TRUE(c1.has_value() && c2.has_value());
  // Bisection may find a subset of crossings per edge, but the centroids of
  // a straight line agree.
  EXPECT_NEAR((*c1)[0], (*c2)[0], 1e-6);
  EXPECT_NEAR((*c1)[1], (*c2)[1], 1e-6);
}

TEST(TriangleMetric, ZeroWhenIdenticalUpToFloors) {
  const DataSpace space;
  const double t2 = triangle_metric_squared(0.0, 1.0, space);
  // Only the floor constants survive: T^2 = 1/4 L0^4 sin^2(theta0).
  const double floor = 0.25 * std::pow(space.l0, 4.0) *
                       std::pow(std::sin(space.theta0), 2.0);
  EXPECT_NEAR(t2, floor, 1e-18);
}

TEST(TriangleMetric, GrowsWithDistanceAndAngle) {
  const DataSpace space;
  const double base = triangle_metric_squared(0.1, 0.99, space);
  EXPECT_GT(triangle_metric_squared(0.5, 0.99, space), base);
  EXPECT_GT(triangle_metric_squared(0.1, 0.5, space), base);
}

TEST(OrdinarySimilarity, IdenticalModelsNearFloor) {
  const DataSpace space;
  const auto m = linear_model({1.0, -0.5}, 0.1);
  const double t = ordinary_similarity(m, m, space);
  EXPECT_LT(t, 1e-5);
}

TEST(OrdinarySimilarity, SymmetricInArguments) {
  const DataSpace space;
  const auto a = linear_model({1.0, 0.2}, 0.1);
  const auto b = linear_model({0.4, 0.9}, -0.3);
  EXPECT_NEAR(ordinary_similarity(a, b, space),
              ordinary_similarity(b, a, space), 1e-12);
}

TEST(OrdinarySimilarity, OrdersByCloseness) {
  const DataSpace space;
  const auto base = linear_model({1.0, 0.0}, 0.0);
  const auto near = linear_model({1.0, 0.1}, 0.05);
  const auto far = linear_model({0.2, 1.0}, -0.6);
  EXPECT_LT(ordinary_similarity(base, near, space),
            ordinary_similarity(base, far, space));
}

TEST(PrivateSimilarity, MatchesOrdinaryLinear) {
  const DataSpace space;
  const auto cfg = SchemeConfig::silent();
  const auto a = linear_model({1.0, 0.2}, 0.1);
  const auto b = linear_model({0.8, 0.5}, -0.2);
  const double priv = private_similarity(a, b, space, cfg);
  const double plain = ordinary_similarity(a, b, space);
  EXPECT_NEAR(priv, plain, 1e-6 + 1e-4 * plain);
}

class SimilarityDims : public ::testing::TestWithParam<std::size_t> {};

// Property: private == ordinary across data-space dimensions 2..8 (the
// Fig. 10 sweep), with randomly drawn models.
TEST_P(SimilarityDims, PrivateMatchesOrdinary) {
  const std::size_t dim = GetParam();
  const DataSpace space;
  const auto cfg = SchemeConfig::silent();
  Rng rng(40 + dim);
  auto random_model = [&]() {
    math::Vec w(dim);
    for (auto& v : w) v = rng.uniform_nonzero(-1.0, 1.0, 0.05);
    return linear_model(w, rng.uniform(-0.3, 0.3));
  };
  const auto a = random_model();
  const auto b = random_model();
  const double plain = ordinary_similarity(a, b, space);
  const double priv = private_similarity(a, b, space, cfg, 70 + dim);
  EXPECT_NEAR(priv, plain, 1e-5 + 1e-3 * plain) << "dim=" << dim;
}

INSTANTIATE_TEST_SUITE_P(Dims, SimilarityDims,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(PrivateSimilarity, FreshRandomnessDoesNotChangeResult) {
  // ram/raw/rb cancel exactly through Eq. (7)'s constants.
  const DataSpace space;
  const auto cfg = SchemeConfig::silent();
  const auto a = linear_model({0.9, -0.3}, 0.15);
  const auto b = linear_model({0.5, 0.5}, 0.0);
  const double r1 = private_similarity(a, b, space, cfg, 100);
  const double r2 = private_similarity(a, b, space, cfg, 200);
  // The stage-2 round over Eq. (7)'s 14 monomial features carries
  // floating-point jitter that depends on the drawn masks; the exact
  // cancellation of ram/raw/rb is asserted within that band.
  EXPECT_NEAR(r1, r2, 1e-5 + 1e-3 * r1);
}

TEST(PrivateSimilarity, KernelizedPolynomialPath) {
  const DataSpace space;
  const auto cfg = SchemeConfig::silent();
  const auto kernel = svm::Kernel::paper_polynomial(2);
  Rng rng(9);
  auto kernel_model = [&]() {
    std::vector<math::Vec> svs;
    std::vector<double> cs;
    for (int s = 0; s < 3; ++s) {
      svs.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
      cs.push_back(rng.uniform_nonzero(-1.5, 1.5, 0.1));
    }
    return svm::SvmModel(kernel, svs, cs, rng.uniform(-0.01, 0.01));
  };
  const auto a = kernel_model();
  const auto b = kernel_model();
  const double plain = ordinary_similarity_kernel(a, b, space);
  const double priv = private_similarity(a, b, space, cfg, 500);
  EXPECT_NEAR(priv, plain, 1e-5 + 1e-2 * plain);
}

TEST(PrivateSimilarity, PrecomputedOtEngine) {
  // The whole three-round evaluation over the offline/online OT split.
  const DataSpace space;
  SchemeConfig cfg;
  cfg.group = crypto::GroupId::kModp1024;
  cfg.ompe.q = 2;
  cfg.ompe.k = 2;
  const auto a = linear_model({1.0, 0.2}, 0.1);
  const auto b = linear_model({0.8, 0.5}, -0.2);
  const double priv = private_similarity(a, b, space, cfg, 900, true);
  const double plain = ordinary_similarity(a, b, space);
  EXPECT_NEAR(priv, plain, 1e-5 + 1e-3 * plain);
}

TEST(OrdinarySimilarity, PreparedMatchesUnprepared) {
  const DataSpace space;
  const auto a = linear_model({0.9, -0.4}, 0.1);
  const auto b = linear_model({0.3, 0.8}, -0.15);
  const auto pa = PreparedModel::prepare(a, space);
  const auto pb = PreparedModel::prepare(b, space);
  EXPECT_NEAR(ordinary_similarity_prepared(pa, pb, space),
              ordinary_similarity(a, b, space), 1e-12);
}

TEST(PrivateSimilarity, ServerLearnsOnlyModuli) {
  // Wire inspection: Bob's first message is exactly two doubles.
  const DataSpace space;
  const auto cfg = SchemeConfig::silent();
  const auto a = linear_model({1.0, 0.0}, 0.0);
  const auto b = linear_model({0.0, 1.0}, 0.0);
  SimilarityServer server(a, space, cfg);
  SimilarityClient client(b, space, cfg);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        // Mirror the client's stage walk: loopback OT setup exchanges no
        // messages, so its first frame is the norms message.
        ch.set_stage(net::Stage::kOtSetup);
        ch.set_stage(net::Stage::kNorms);
        const Bytes first = ch.recv();
        ch.close();
        return first;
      },
      [&](net::Endpoint& ch) {
        Rng rng(7);
        OtBundle ot = test::loopback_bundle();
        try {
          return client.evaluate(ch, rng, &ot);
        } catch (const ProtocolError&) {
          return 0.0;
        }
      });
  EXPECT_EQ(outcome.a.size(), 16u);
}

TEST(PrivateSimilarity, RejectsUnsupportedKernel) {
  const DataSpace space;
  const auto cfg = SchemeConfig::silent();
  const svm::SvmModel rbf_model(svm::Kernel::rbf(1.0), {{0.1, 0.1}}, {1.0},
                                0.3);
  EXPECT_THROW(SimilarityServer(rbf_model, space, cfg), InvalidArgument);
}

TEST(PrivateSimilarity, DegeneratePlaneRejected) {
  const DataSpace space;
  const auto cfg = SchemeConfig::silent();
  // Plane entirely outside the data space.
  const auto outside = linear_model({1.0, 0.0}, 7.0);
  EXPECT_THROW(SimilarityServer(outside, space, cfg), InvalidArgument);
}

}  // namespace
}  // namespace ppds::core
