#pragma once

#include <optional>
#include <vector>

#include "ppds/core/config.hpp"
#include "ppds/math/monomial.hpp"
#include "ppds/net/channel.hpp"
#include "ppds/svm/model.hpp"

/// \file similarity.hpp
/// Privacy-preserving data similarity evaluation (Section V of the paper).
///
/// Metric: two trained models are compared as BOUNDED hyperplanes inside
/// the data space [lo, hi]^n. With theta the angle between the planes and L
/// the distance between the centroids of their bounded parts, the paper's
/// isosceles-triangle metric is
///     T^2 = 1/4 (L^4 + L0^4) (sin^2 theta + sin^2 theta0)        (Eq. 4/6)
/// where the public constants L0, theta0 keep the two degenerate cases
/// (parallel planes / coincident centroids) distinguishable from the exact
/// match. Smaller T means more similar models.
///
/// The private protocol (linear case):
///   0. Bob sends ||mB||^2 and ||wB||^2 (vector moduli only).
///   1. Two OMPE rounds give Bob the amplified dot products
///      x1 = ram * (mA . mB)  and  x2 = raw * (wA . wB) + rb.
///   2. One OMPE round on Eq. (7) —
///      T^2(x1,x2) = 1/4 [(c1 - 2 d1 x1)^2 + c2][c4 - c3 (d2 (x2 + d3))^2]
///      with c/d constants known only to Alice — gives Bob T^2, hence T.
///      Bob maps (x1, x2) through its 14 monomials of degree 1..4, over
///      which Eq. (7) is linear, so the round is degree 1 like the others.
///
/// The nonlinear variant replaces every dot product by the (polynomial)
/// kernel, evaluated as a linear form over the monomials of Bob's vector,
/// and computes centroids of the kernel decision surface.

namespace ppds::core {

/// Geometry of the bounded data space.
struct DataSpace {
  double lo = -1.0;
  double hi = 1.0;
  double l0 = 1e-3;      ///< distance floor constant L0 (public)
  double theta0 = 1e-3;  ///< angle floor constant theta_0 in radians (public)
};

/// --- Plaintext geometry (baseline + building blocks) -----------------------

/// Boundary points of the hyperplane w.t + b = 0 within the data space:
/// Eq. (5) corner enumeration — for each dimension treated as the free
/// variable, solve at every corner assignment of the remaining dimensions
/// and keep in-range solutions. O(n * 2^(n-1)).
std::vector<math::Vec> linear_boundary_points(const math::Vec& w, double b,
                                              const DataSpace& space);

/// Boundary points of a kernel decision surface d(t) = 0: same edge
/// enumeration, 1-D bisection along each edge.
std::vector<math::Vec> kernel_boundary_points(const svm::SvmModel& model,
                                              const DataSpace& space);

/// Centroid of a bounded plane = mean of its boundary points. nullopt when
/// the surface does not intersect the data space.
std::optional<math::Vec> bounded_centroid(const std::vector<math::Vec>& pts);

/// The paper's squared metric from raw ingredients (Eq. 4).
double triangle_metric_squared(double centroid_dist2, double cos2_theta,
                               const DataSpace& space);

/// Plaintext (non-private) similarity between two linear models — the
/// "ordinary similarity evaluation" baseline of Fig. 10. Returns T.
double ordinary_similarity(const svm::SvmModel& a, const svm::SvmModel& b,
                           const DataSpace& space);

/// A model with its bounded-plane geometry precomputed (the centroid
/// enumeration is a one-time per-model cost; both the ordinary and the
/// private evaluation amortize it across comparisons).
struct PreparedModel {
  math::Vec w;
  math::Vec centroid;

  static PreparedModel prepare(const svm::SvmModel& model,
                               const DataSpace& space);
};

/// Per-comparison cost of the ordinary evaluation (geometry precomputed) —
/// the fair baseline for Fig. 10's per-evaluation timing.
double ordinary_similarity_prepared(const PreparedModel& a,
                                    const PreparedModel& b,
                                    const DataSpace& space);

/// Plaintext nonlinear similarity per Section V-C (kernelized T).
double ordinary_similarity_kernel(const svm::SvmModel& a,
                                  const svm::SvmModel& b,
                                  const DataSpace& space);

/// --- Private two-party protocol --------------------------------------------

/// Alice's side of one similarity evaluation. Learns only ||mB||^2, ||wB||^2.
class SimilarityServer {
 public:
  SimilarityServer(const svm::SvmModel& model, DataSpace space,
                   SchemeConfig config);

  /// Serves one evaluation over the channel.
  void serve(net::Endpoint& channel, Rng& rng) const;

  const math::Vec& centroid() const { return centroid_; }

 private:
  DataSpace space_;
  SchemeConfig config_;
  svm::Kernel kernel_;
  math::Vec w_;         ///< linear weights (linear kernel path)
  double bias_ = 0.0;
  math::Vec centroid_;
  bool kernelized_ = false;
  /// Stage-1 feature map of the kernel path: monomials_up_to(n, p).
  std::vector<math::Exponents> basis_;
};

/// Bob's side; learns T.
class SimilarityClient {
 public:
  SimilarityClient(const svm::SvmModel& model, DataSpace space,
                   SchemeConfig config);

  /// Runs one evaluation; returns the similarity value T (smaller = more
  /// similar).
  double evaluate(net::Endpoint& channel, Rng& rng) const;

 private:
  DataSpace space_;
  SchemeConfig config_;
  svm::Kernel kernel_;
  math::Vec w_;
  math::Vec centroid_;
  bool kernelized_ = false;
  std::vector<math::Exponents> basis_;  ///< as SimilarityServer::basis_
  double w_norm2_ = 0.0;  ///< ||wB||^2 resp. K(wB, wB)
  double m_norm2_ = 0.0;  ///< ||mB||^2 resp. K(mB, mB)
};

}  // namespace ppds::core
