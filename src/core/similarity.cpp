#include "ppds/core/similarity.hpp"

#include <cmath>

#include "ppds/math/multipoly.hpp"
#include "ppds/math/rootfind.hpp"
#include "ppds/net/framing.hpp"

namespace ppds::core {

namespace {

/// Enumerates the 2^(n-1) corner assignments of the non-free dimensions.
/// Calls \p visit with a workspace vector whose free dimension is left for
/// the caller to fill.
template <typename Visit>
void for_each_edge(std::size_t n, const DataSpace& space, Visit&& visit) {
  detail::require(n >= 1 && n <= 20,
                  "boundary enumeration: dimension too large (2^(n-1) edges)");
  math::Vec point(n, 0.0);
  for (std::size_t free_dim = 0; free_dim < n; ++free_dim) {
    const std::size_t combos = std::size_t{1} << (n - 1);
    for (std::size_t mask = 0; mask < combos; ++mask) {
      std::size_t bit = 0;
      for (std::size_t d = 0; d < n; ++d) {
        if (d == free_dim) continue;
        point[d] = ((mask >> bit) & 1) != 0 ? space.hi : space.lo;
        ++bit;
      }
      visit(free_dim, point);
    }
  }
}

/// Aggregate input-space direction of a kernel model: w = sum_s c_s x_s.
/// This is the exact hyperplane normal for the linear kernel and the
/// pre-image approximation of the feature-space normal otherwise — the
/// single-vector reading of the paper's K(wA, wB) notation (Section V-C).
math::Vec aggregate_direction(const svm::SvmModel& model) {
  math::Vec w(model.dim(), 0.0);
  const auto& svs = model.support_vectors();
  const auto& cs = model.coefficients();
  for (std::size_t s = 0; s < svs.size(); ++s) math::axpy(cs[s], svs[s], w);
  return w;
}

/// Expands K(anchor, t) = (a0 anchor.t + b0)^p (times \p amplifier, plus
/// \p offset) into a MultiPoly over t — the secret of the nonlinear stage-1
/// rounds, linearized over monomials_up_to(n, p) before it is served.
math::MultiPoly kernel_stage1_poly(const math::Vec& anchor,
                                   const svm::Kernel& kernel, double amplifier,
                                   double offset) {
  math::Vec scaled = anchor;
  math::scale(scaled, kernel.a0);
  math::MultiPoly base = math::MultiPoly::affine(scaled, kernel.b0);
  math::MultiPoly poly =
      math::MultiPoly::pow(base, kernel.degree, kernel.degree);
  poly.scale(amplifier);
  poly.add_constant(offset);
  return poly;
}

/// Eq. (7): builds the bivariate degree-4 polynomial
/// T^2(x1,x2) = 1/4 [(c1 - 2 d1 x1)^2 + c2][c4 - c3 (d2(x2 + d3))^2],
/// served linearized over stage2_basis().
math::MultiPoly equation7_poly(double c1, double c2, double c3, double c4,
                               double d1, double d2, double d3) {
  const double a_coef[3] = {c1 * c1 + c2, -4.0 * c1 * d1, 4.0 * d1 * d1};
  const double e = c3 * d2 * d2;
  const double b_coef[3] = {c4 - e * d3 * d3, -2.0 * e * d3, -e};
  math::MultiPoly poly(2);
  for (unsigned i = 0; i < 3; ++i) {
    for (unsigned j = 0; j < 3; ++j) {
      const double coeff = 0.25 * a_coef[i] * b_coef[j];
      if (coeff == 0.0) continue;
      poly.add_term(coeff, math::Exponents{static_cast<std::uint8_t>(i),
                                           static_cast<std::uint8_t>(j)});
    }
  }
  return poly;
}

/// Public feature map of stage 2: the 14 monomials of degree 1..4 in
/// (x1, x2). Eq. (7) is linear over it.
const std::vector<math::Exponents>& stage2_basis() {
  static const std::vector<math::Exponents> basis = math::monomials_up_to(2, 4);
  return basis;
}

/// Serves one OMPE round of \p secret linearized over \p basis.
void serve_linearized(net::Endpoint& channel, const math::MultiPoly& secret,
                      const std::vector<math::Exponents>& basis,
                      const ompe::OmpeParams& params, crypto::OtSender& ot,
                      Rng& rng) {
  const math::LinearExpansion form = math::linearize(secret, basis);
  ompe::run_sender(channel, form.coeffs, form.constant, params, ot, rng);
}

/// One OT block for a whole evaluation: three OMPE rounds of one shape.
OtDemand evaluation_demand(const ompe::OmpeParams& params) {
  OtDemand demand = ot_demand_per_query(params);
  demand.count *= 3;
  return demand;
}

double kernel_self(const svm::Kernel& kernel, const math::Vec& v) {
  if (kernel.type == svm::KernelType::kLinear) return math::norm2(v);
  return kernel(v, v);
}

}  // namespace

std::vector<math::Vec> linear_boundary_points(const math::Vec& w, double b,
                                              const DataSpace& space) {
  std::vector<math::Vec> out;
  for_each_edge(w.size(), space, [&](std::size_t free_dim, math::Vec& point) {
    if (std::abs(w[free_dim]) < 1e-12) return;
    double rhs = -b;
    for (std::size_t d = 0; d < w.size(); ++d) {
      if (d != free_dim) rhs -= w[d] * point[d];
    }
    const double u = rhs / w[free_dim];
    if (u >= space.lo && u <= space.hi) {
      point[free_dim] = u;
      out.push_back(point);
    }
  });
  return out;
}

std::vector<math::Vec> kernel_boundary_points(const svm::SvmModel& model,
                                              const DataSpace& space) {
  std::vector<math::Vec> out;
  for_each_edge(model.dim(), space, [&](std::size_t free_dim, math::Vec& point) {
    auto along_edge = [&](double u) {
      point[free_dim] = u;
      return model.decision_value(point);
    };
    const std::optional<double> root =
        math::bisect(along_edge, space.lo, space.hi);
    if (root.has_value()) {
      point[free_dim] = *root;
      out.push_back(point);
    }
  });
  return out;
}

std::optional<math::Vec> bounded_centroid(const std::vector<math::Vec>& pts) {
  if (pts.empty()) return std::nullopt;
  return math::mean_point(pts);
}

double triangle_metric_squared(double centroid_dist2, double cos2_theta,
                               const DataSpace& space) {
  const double l4 = centroid_dist2 * centroid_dist2;
  const double l04 = std::pow(space.l0, 4.0);
  const double sin2 = std::fmax(0.0, 1.0 - cos2_theta);
  const double sin2_0 = std::pow(std::sin(space.theta0), 2.0);
  return 0.25 * (l4 + l04) * (sin2 + sin2_0);
}

double ordinary_similarity(const svm::SvmModel& a, const svm::SvmModel& b,
                           const DataSpace& space) {
  const math::Vec wa = a.linear_weights();
  const math::Vec wb = b.linear_weights();
  const auto ca = bounded_centroid(
      linear_boundary_points(wa, a.bias(), space));
  const auto cb = bounded_centroid(
      linear_boundary_points(wb, b.bias(), space));
  detail::require(ca.has_value() && cb.has_value(),
                  "ordinary_similarity: a plane misses the data space");
  const double l2 = math::dist2(*ca, *cb);
  const double c = math::cosine_similarity(wa, wb);
  return std::sqrt(triangle_metric_squared(l2, c * c, space));
}

PreparedModel PreparedModel::prepare(const svm::SvmModel& model,
                                     const DataSpace& space) {
  PreparedModel out;
  out.w = model.linear_weights();
  const auto c =
      bounded_centroid(linear_boundary_points(out.w, model.bias(), space));
  detail::require(c.has_value(), "PreparedModel: plane misses the data space");
  out.centroid = *c;
  return out;
}

double ordinary_similarity_prepared(const PreparedModel& a,
                                    const PreparedModel& b,
                                    const DataSpace& space) {
  const double l2 = math::dist2(a.centroid, b.centroid);
  const double c = math::cosine_similarity(a.w, b.w);
  return std::sqrt(triangle_metric_squared(l2, c * c, space));
}

double ordinary_similarity_kernel(const svm::SvmModel& a,
                                  const svm::SvmModel& b,
                                  const DataSpace& space) {
  const svm::Kernel& kernel = a.kernel();
  detail::require(kernel == b.kernel(),
                  "ordinary_similarity_kernel: kernel mismatch");
  const math::Vec wa = aggregate_direction(a);
  const math::Vec wb = aggregate_direction(b);
  const auto ca = bounded_centroid(kernel_boundary_points(a, space));
  const auto cb = bounded_centroid(kernel_boundary_points(b, space));
  detail::require(ca.has_value() && cb.has_value(),
                  "ordinary_similarity_kernel: a surface misses the space");
  // Kernelized Eq. (6): distances and angles in feature space.
  const double kmm =
      kernel(*ca, *ca) + kernel(*cb, *cb) - 2.0 * kernel(*ca, *cb);
  const double kw = kernel(wa, wb);
  const double cos2 = (kw * kw) / (kernel_self(kernel, wa) * kernel_self(kernel, wb));
  return std::sqrt(triangle_metric_squared(kmm, std::fmin(cos2, 1.0), space));
}

SimilarityServer::SimilarityServer(const svm::SvmModel& model, DataSpace space,
                                   SchemeConfig config)
    : space_(space), config_(config), kernel_(model.kernel()) {
  // Eq. (7) expanded over its monomials cancels to a small T^2, which the
  // fixed-point grid of the exact backend cannot resolve; similarity always
  // runs the real backend (DESIGN.md §5).
  config_.ompe.backend = ompe::Backend::kReal;
  ompe::validate(config_.ompe);
  kernelized_ = kernel_.type != svm::KernelType::kLinear;
  detail::require(!kernelized_ || kernel_.type == svm::KernelType::kPolynomial,
                  "SimilarityServer: kernel path supports polynomial kernels");
  if (kernelized_) {
    basis_ = math::monomials_up_to(model.dim(), kernel_.degree);
    w_ = aggregate_direction(model);
    const auto c = bounded_centroid(kernel_boundary_points(model, space_));
    detail::require(c.has_value(),
                    "SimilarityServer: surface misses the data space");
    centroid_ = *c;
  } else {
    w_ = model.linear_weights();
    bias_ = model.bias();
    const auto c =
        bounded_centroid(linear_boundary_points(w_, bias_, space_));
    detail::require(c.has_value(),
                    "SimilarityServer: plane misses the data space");
    centroid_ = *c;
  }
}

void SimilarityServer::serve(net::Endpoint& channel, Rng& rng) const {
  OtBundle ot(config_, rng);
  // One evaluation = two stage-1 OMPE rounds + the Eq. (7) stage-2 round.
  channel.set_stage(net::Stage::kOtSetup);
  try {
    ot.prepare_sender(channel, evaluation_demand(config_.ompe));

    // Step 0: Bob's vector moduli.
    channel.set_stage(net::Stage::kNorms);
    const Bytes norms = channel.recv();
    ByteReader r(norms);
    const double m_norm2_b = r.f64();
    const double w_norm2_b = r.f64();
    r.expect_end();
    detail::require(w_norm2_b > 0.0, "similarity: degenerate peer weights");

    const double ram = rng.log_uniform_positive(-2.0, 2.0);
    const double raw = rng.log_uniform_positive(-2.0, 2.0);
    const double rb = rng.uniform_nonzero(-4.0, 4.0, 0.25);

    // Stage 1a: x1 = ram * (mA . mB)   (kernelized: ram * K(mA, mB)).
    // Stage 1b: x2 = raw * (wA . wB) + rb.
    if (kernelized_) {
      serve_linearized(channel, kernel_stage1_poly(centroid_, kernel_, ram, 0.0),
                       basis_, config_.ompe, ot.sender(), rng);
      serve_linearized(channel, kernel_stage1_poly(w_, kernel_, raw, rb),
                       basis_, config_.ompe, ot.sender(), rng);
    } else {
      math::Vec ma = centroid_;
      math::scale(ma, ram);
      ompe::run_sender(channel, ma, 0.0, config_.ompe, ot.sender(), rng);
      math::Vec wa = w_;
      math::scale(wa, raw);
      ompe::run_sender(channel, wa, rb, config_.ompe, ot.sender(), rng);
    }

    // Stage 2: Eq. (7) with Alice's private constants.
    const double kmm_a = kernelized_ ? kernel_(centroid_, centroid_)
                                     : math::norm2(centroid_);
    const double kww_a = kernelized_ ? kernel_(w_, w_) : math::norm2(w_);
    detail::require(kww_a > 0.0, "similarity: degenerate own weights");
    const double c1 = kmm_a + m_norm2_b;
    const double c2 = std::pow(space_.l0, 4.0);
    const double c3 = 1.0 / (kww_a * w_norm2_b);
    const double c4 = 1.0 + std::pow(std::sin(space_.theta0), 2.0);
    const double d1 = 1.0 / ram;
    const double d2 = 1.0 / raw;
    const double d3 = -rb;
    serve_linearized(channel, equation7_poly(c1, c2, c3, c4, d1, d2, d3),
                     stage2_basis(), config_.ompe, ot.sender(), rng);
  } catch (...) {
    ot.abort();
    throw;
  }
}

SimilarityClient::SimilarityClient(const svm::SvmModel& model, DataSpace space,
                                   SchemeConfig config)
    : space_(space), config_(config), kernel_(model.kernel()) {
  config_.ompe.backend = ompe::Backend::kReal;
  ompe::validate(config_.ompe);
  kernelized_ = kernel_.type != svm::KernelType::kLinear;
  detail::require(!kernelized_ || kernel_.type == svm::KernelType::kPolynomial,
                  "SimilarityClient: kernel path supports polynomial kernels");
  if (kernelized_) {
    basis_ = math::monomials_up_to(model.dim(), kernel_.degree);
    w_ = aggregate_direction(model);
    const auto c = bounded_centroid(kernel_boundary_points(model, space_));
    detail::require(c.has_value(),
                    "SimilarityClient: surface misses the data space");
    centroid_ = *c;
  } else {
    w_ = model.linear_weights();
    const auto c = bounded_centroid(
        linear_boundary_points(w_, model.bias(), space_));
    detail::require(c.has_value(),
                    "SimilarityClient: plane misses the data space");
    centroid_ = *c;
  }
  m_norm2_ = kernelized_ ? kernel_(centroid_, centroid_) : math::norm2(centroid_);
  w_norm2_ = kernelized_ ? kernel_(w_, w_) : math::norm2(w_);
}

double SimilarityClient::evaluate(net::Endpoint& channel, Rng& rng) const {
  OtBundle ot(config_, rng);
  channel.set_stage(net::Stage::kOtSetup);
  try {
    ot.prepare_receiver(channel, evaluation_demand(config_.ompe));

    channel.set_stage(net::Stage::kNorms);
    ByteWriter w;
    w.f64(m_norm2_);
    w.f64(w_norm2_);
    channel.send(w.take());

    // Stage 1 features: the raw vectors, or their monomials for the kernel.
    const auto features = [this](const math::Vec& v) {
      return kernelized_ ? math::monomial_transform(basis_, v) : v;
    };
    const double x1 = ompe::run_receiver(channel, features(centroid_),
                                         config_.ompe, ot.receiver(), rng);
    const double x2 = ompe::run_receiver(channel, features(w_), config_.ompe,
                                         ot.receiver(), rng);
    const double t2 = ompe::run_receiver(
        channel, math::monomial_transform(stage2_basis(), {x1, x2}),
        config_.ompe, ot.receiver(), rng);
    return std::sqrt(std::fmax(t2, 0.0));
  } catch (...) {
    ot.abort();
    throw;
  }
}

}  // namespace ppds::core
