#include "ppds/core/classification.hpp"

#include <cmath>
#include <optional>

#include "ppds/common/ct.hpp"
#include "ppds/common/secret_taint.hpp"
#include "ppds/core/session.hpp"
#include "ppds/math/taylor.hpp"
#include "ppds/net/framing.hpp"

namespace ppds::core {

namespace {

/// Truncated-Taylor polynomial (over t) of one RBF term exp(-g*||x - t||^2).
math::MultiPoly rbf_term_poly(const math::Vec& x, double gamma,
                              unsigned order) {
  const std::size_t n = x.size();
  // r2(t) = ||x||^2 - 2 x.t + sum t_j^2
  math::MultiPoly r2(n);
  r2.add_constant(math::norm2(x));
  for (std::size_t j = 0; j < n; ++j) {
    math::Exponents lin(n, 0);
    lin[j] = 1;
    r2.add_term(-2.0 * x[j], std::move(lin));
    math::Exponents sq(n, 0);
    sq[j] = 2;
    r2.add_term(1.0, std::move(sq));
  }
  // exp(-g r2) ~= sum_i (-g)^i / i! * r2^i, truncated at total degree `order`.
  math::MultiPoly acc(n);
  math::MultiPoly power(n);
  power.add_constant(1.0);
  double factor = 1.0;
  acc.add_constant(1.0);
  for (unsigned i = 1; 2 * i <= order; ++i) {
    power = math::MultiPoly::mul(power, r2, order);
    factor *= -gamma / static_cast<double>(i);
    math::MultiPoly contrib = power;
    contrib.scale(factor);
    acc = acc + contrib;
  }
  return acc;
}

/// Truncated-Taylor polynomial of one sigmoid term tanh(a0 x.t + c0).
math::MultiPoly sigmoid_term_poly(const math::Vec& x, double a0, double c0,
                                  unsigned order) {
  const std::size_t n = x.size();
  math::Vec scaled = x;
  math::scale(scaled, a0);
  math::MultiPoly u = math::MultiPoly::affine(scaled, c0);
  const std::vector<double> series = math::tanh_taylor(order);
  math::MultiPoly acc(n);
  math::MultiPoly power(n);
  power.add_constant(1.0);
  for (std::size_t j = 0; j < series.size(); ++j) {
    if (series[j] != 0.0) {
      math::MultiPoly contrib = power;
      contrib.scale(series[j]);
      acc = acc + contrib;
    }
    if (j + 1 < series.size()) power = math::MultiPoly::mul(power, u, order);
  }
  return acc;
}

/// The kernel degree or Taylor order of a graded basis: its last node's depth.
unsigned basis_degree(const math::MonomialDag& dag) {
  unsigned d = 0;
  for (std::size_t i = dag.size() - 1; i != dag.kOne; i = dag.parent[i]) ++d;
  return d;
}

}  // namespace

ClassificationProfile ClassificationProfile::make(std::size_t input_dim,
                                                  const svm::Kernel& kernel,
                                                  unsigned taylor_order) {
  detail::require(input_dim >= 1, "ClassificationProfile: dim >= 1");
  ClassificationProfile profile;
  profile.input_dim = input_dim;
  profile.kernel = kernel;
  // Every kernel's decision function is linear over a monomial feature map:
  // the polynomial kernel exactly, RBF and sigmoid through their Taylor
  // truncation.
  unsigned basis = 0;
  switch (kernel.type) {
    case svm::KernelType::kLinear:
      break;
    case svm::KernelType::kPolynomial:
      detail::require(kernel.degree >= 1, "polynomial kernel degree >= 1");
      basis = kernel.degree;
      break;
    case svm::KernelType::kRbf:
      detail::require(taylor_order >= 2 && taylor_order % 2 == 0,
                      "rbf taylor order must be even and >= 2");
      basis = taylor_order;
      break;
    case svm::KernelType::kSigmoid:
      detail::require(taylor_order >= 1, "sigmoid taylor order >= 1");
      basis = taylor_order;
      break;
  }
  profile.poly_arity = input_dim;
  if (basis != 0) {
    profile.monomial_dag = math::build_monomial_dag(input_dim, basis);
    profile.poly_arity = profile.monomial_dag.size();
  }
  profile.parameter_midstate_ = absorb_profile_parameters(profile, basis);
  return profile;
}

const crypto::Sha256& ClassificationProfile::parameter_midstate() const {
  detail::require(parameter_midstate_.has_value(),
                  "ClassificationProfile: not built by make(), no digest");
  return *parameter_midstate_;
}

std::vector<double> ClassificationProfile::transform(
    const std::vector<double>& sample) const {
  detail::require(sample.size() == input_dim,
                  "ClassificationProfile: sample dimension mismatch");
  if (monomial_dag.empty()) return sample;
  std::vector<double> tau(monomial_dag.size());
  monomial_dag.evaluate(std::span<const double>(sample), std::span<double>(tau));
  return tau;
}

std::vector<std::vector<double>> ClassificationProfile::transform_batch(
    const std::vector<std::vector<double>>& samples) const {
  std::vector<std::vector<double>> out;
  out.reserve(samples.size());
  if (monomial_dag.empty()) {
    for (const std::vector<double>& sample : samples) {
      out.push_back(transform(sample));
    }
    return out;
  }
  // Node-major SoA block: lane b of node i lives at block[i * kLanes + b].
  // Each sample still sees the exact per-node multiply chain of
  // transform(), so results are bit-identical; the lanes are independent
  // chains, which is what lets the inner loop vectorize.
  constexpr std::size_t kLanes = 8;
  const std::size_t nodes = monomial_dag.size();
  std::vector<double> block(nodes * kLanes);
  std::size_t s0 = 0;
  for (; s0 + kLanes <= samples.size(); s0 += kLanes) {
    for (std::size_t b = 0; b < kLanes; ++b) {
      detail::require(samples[s0 + b].size() == input_dim,
                      "ClassificationProfile: sample dimension mismatch");
    }
    for (std::size_t i = 0; i < nodes; ++i) {
      const std::uint32_t parent = monomial_dag.parent[i];
      const std::uint32_t var = monomial_dag.var[i];
      double* lane = block.data() + i * kLanes;
      if (parent == math::MonomialDag::kOne) {
        for (std::size_t b = 0; b < kLanes; ++b) {
          lane[b] = samples[s0 + b][var];
        }
      } else {
        const double* up = block.data() + parent * kLanes;
        for (std::size_t b = 0; b < kLanes; ++b) {
          lane[b] = up[b] * samples[s0 + b][var];
        }
      }
    }
    for (std::size_t b = 0; b < kLanes; ++b) {
      std::vector<double> tau(nodes);
      for (std::size_t i = 0; i < nodes; ++i) tau[i] = block[i * kLanes + b];
      out.push_back(std::move(tau));
    }
  }
  for (; s0 < samples.size(); ++s0) out.push_back(transform(samples[s0]));
  return out;
}

math::MultiPoly expand_decision_function(const svm::SvmModel& model,
                                         const ClassificationProfile& profile) {
  const auto& kernel = profile.kernel;
  detail::require(model.kernel() == kernel,
                  "expand_decision_function: model/profile kernel mismatch");
  detail::require(model.dim() == profile.input_dim,
                  "expand_decision_function: dimension mismatch");

  switch (kernel.type) {
    case svm::KernelType::kLinear: {
      return math::MultiPoly::affine(model.linear_weights(), model.bias());
    }
    case svm::KernelType::kPolynomial: {
      // Delegate to the coefficient form, then lift to a MultiPoly (only
      // tests and small demos take this path; the server itself keeps the
      // coefficient form to stay O(arity)).
      const math::LinearExpansion expansion =
          expand_decision_coefficients(model, profile);
      math::MultiPoly poly(profile.poly_arity);
      for (std::size_t j = 0; j < expansion.coeffs.size(); ++j) {
        math::Exponents unit(profile.poly_arity, 0);
        unit[j] = 1;
        poly.add_term(expansion.coeffs[j], std::move(unit));
      }
      poly.add_constant(expansion.constant);
      return poly;
    }
    case svm::KernelType::kRbf:
    case svm::KernelType::kSigmoid: {
      const unsigned order = basis_degree(profile.monomial_dag);
      math::MultiPoly acc(profile.input_dim);
      const auto& svs = model.support_vectors();
      const auto& cs = model.coefficients();
      for (std::size_t s = 0; s < svs.size(); ++s) {
        math::MultiPoly term =
            kernel.type == svm::KernelType::kRbf
                ? rbf_term_poly(svs[s], kernel.gamma, order)
                : sigmoid_term_poly(svs[s], kernel.a0, kernel.c0, order);
        term.scale(cs[s]);
        acc = acc + term;
      }
      acc.add_constant(model.bias());
      return acc;
    }
  }
  throw InvalidArgument("expand_decision_function: unknown kernel");
}

math::LinearExpansion expand_decision_coefficients(
    const svm::SvmModel& model, const ClassificationProfile& profile) {
  const auto& kernel = profile.kernel;
  detail::require(model.kernel() == kernel,
                  "expand_decision_coefficients: kernel mismatch");
  detail::require(model.dim() == profile.input_dim,
                  "expand_decision_coefficients: dimension mismatch");
  switch (kernel.type) {
    case svm::KernelType::kLinear:
      return math::LinearExpansion{model.linear_weights(), model.bias()};
    case svm::KernelType::kRbf:
    case svm::KernelType::kSigmoid:
      // Only tests and the Taylor ablation serve these, at n <= 4: the
      // Taylor MultiPoly is small, so linearize it directly.
      return math::linearize(expand_decision_function(model, profile),
                             math::monomials_up_to(
                                 profile.input_dim,
                                 basis_degree(profile.monomial_dag)));
    case svm::KernelType::kPolynomial:
      break;
  }
  // d(tau) = sum_j coeff_j tau_j + const, where for a monomial with
  // exponents kappa of total degree i:
  //   coeff_j = p!/(kappa! (p-i)!) a0^i b0^{p-i} sum_s c_s prod x_s^kappa
  // A DAG sweep seeded with c_s yields c_s * prod x_s^kappa.
  const unsigned p = kernel.degree;
  const auto& svs = model.support_vectors();
  const auto& cs = model.coefficients();
  const math::MonomialDag& dag = profile.monomial_dag;
  const std::size_t nodes = dag.size();
  PPDS_SECRET std::vector<double> sv_sums(nodes, 0.0);  // wiped on exit
  PPDS_SECRET std::vector<double> term(nodes);
  const ScopedWipe sums_guard(sv_sums);
  const ScopedWipe term_guard(term);
  for (std::size_t s = 0; s < svs.size(); ++s) {
    dag.evaluate(std::span<const double>(svs[s]), std::span<double>(term),
                 cs[s]);
    for (std::size_t j = 0; j < nodes; ++j) sv_sums[j] += term[j];
  }
  // Degree i, last-variable run and multinomial_coefficient's running product
  // follow from the parent's: a node extends its parent's run or starts one.
  std::vector<unsigned> degree(nodes);
  std::vector<unsigned> run(nodes);
  std::vector<double> kappa_factor(nodes);
  math::LinearExpansion out;
  out.coeffs.assign(nodes, 0.0);
  for (std::size_t j = 0; j < nodes; ++j) {
    const std::uint32_t up = dag.parent[j];
    const bool root = up == math::MonomialDag::kOne;
    const unsigned i = degree[j] = root ? 1 : degree[up] + 1;
    run[j] = !root && dag.var[up] == dag.var[j] ? run[up] + 1 : 1;
    kappa_factor[j] = (root ? 1.0 : kappa_factor[up]) * i / run[j];
    if (p > i && kernel.b0 == 0.0) continue;  // homogeneous: no low terms
    double combinatorial = kappa_factor[j];  // then the (p - i) entry
    for (unsigned k = 1; k <= p - i; ++k) {
      combinatorial = combinatorial * (i + k) / k;
    }
    const double b0_pow =
        p > i ? std::pow(kernel.b0, static_cast<double>(p - i)) : 1.0;
    out.coeffs[j] = combinatorial *
                    std::pow(kernel.a0, static_cast<double>(i)) * b0_pow *
                    sv_sums[j];
  }
  // Constant part: b plus, for inhomogeneous kernels, the b0^p term of
  // every support vector.
  out.constant = model.bias();
  if (kernel.b0 != 0.0) {
    double sv_sum = 0.0;
    for (double c : model.coefficients()) sv_sum += c;
    out.constant +=
        std::pow(kernel.b0, static_cast<double>(kernel.degree)) * sv_sum;
  }
  return out;
}

ClassificationServer::ClassificationServer(
    const svm::SvmModel& model, const ClassificationProfile& profile,
    SchemeConfig config)
    : config_(config) {
  ompe::validate(config_.ompe);
  expansion_ = expand_decision_coefficients(model, profile);
}

void ClassificationServer::serve(net::Endpoint& channel, std::size_t count,
                                 Rng& rng, OtBundle* external) const {
  std::optional<OtBundle> local;
  OtBundle& ot = external != nullptr ? *external : local.emplace(config_, rng);
  // Precomputed engine: run the whole batch's offline OT phase up front
  // (the client's matching batch call does the same).
  channel.set_stage(net::Stage::kOtSetup);
  try {
    ot.prepare_sender(channel, ot_demand_per_query(config_.ompe), count);
    for (std::size_t i = 0; i < count; ++i) {
      // Fresh positive amplifier per query — the Level-2 defense of Fig. 5/6.
      // The range is deliberately wide (2^-8 .. 2^8): multiplicative positive
      // noise has a positive mean, so a colluding least-squares fit converges
      // to the true DIRECTION at a rate set by the noise spread — a heavier
      // tail buys more collusion resistance (quantified in fig5 and
      // EXPERIMENTS.md; an observation the paper does not make).
      const double ra = rng.log_uniform_positive(-8.0, 8.0);
      PPDS_SECRET std::vector<double> amplified = expansion_.coeffs;
      const ScopedWipe guard(amplified);  // ra-amplified model is secret
      for (double& c : amplified) c *= ra;
      ompe::run_sender(channel, amplified, ra * expansion_.constant,
                       config_.ompe, ot.sender(), rng);
    }
  } catch (...) {
    // Fail closed: a half-consumed precomputed-OT batch must never be
    // resumed (the two sides may disagree on how much was consumed).
    ot.abort();
    throw;
  }
}

ClassificationClient::ClassificationClient(ClassificationProfile profile,
                                           SchemeConfig config)
    : profile_(std::move(profile)), config_(config) {
  ompe::validate(config_.ompe);
}

double ClassificationClient::query_value(net::Endpoint& channel,
                                         const std::vector<double>& sample,
                                         Rng& rng) const {
  return query_values_batch(channel, {sample}, rng).front();
}

int ClassificationClient::classify(net::Endpoint& channel,
                                   const std::vector<double>& sample,
                                   Rng& rng) const {
  return classify_batch(channel, {sample}, rng).front();
}

std::vector<double> ClassificationClient::query_values_batch(
    net::Endpoint& channel, const std::vector<std::vector<double>>& samples,
    Rng& rng, OtBundle* external) const {
  std::optional<OtBundle> local;
  OtBundle& ot = external != nullptr ? *external : local.emplace(config_, rng);
  channel.set_stage(net::Stage::kOtSetup);
  try {
    ot.prepare_receiver(channel, ot_demand_per_query(config_.ompe),
                        samples.size());
    // Transform the whole batch up front through the SoA lane sweep
    // (bit-identical per sample to transform()).
    const std::vector<std::vector<double>> taus =
        profile_.transform_batch(samples);
    std::vector<double> out;
    out.reserve(samples.size());
    for (const auto& tau : taus) {
      out.push_back(
          ompe::run_receiver(channel, tau, config_.ompe, ot.receiver(), rng));
    }
    return out;
  } catch (...) {
    ot.abort();
    throw;
  }
}

std::vector<int> ClassificationClient::classify_batch(
    net::Endpoint& channel, const std::vector<std::vector<double>>& samples,
    Rng& rng, OtBundle* external) const {
  const std::vector<double> values =
      query_values_batch(channel, samples, rng, external);
  std::vector<int> labels;
  labels.reserve(values.size());
  for (double v : values) {
    // Two-step reveal: declassify the comparison (a single public bit),
    // then branch on the public bool — never on the masked value itself.
    const bool negative = PPDS_DECLASSIFY(
        v < 0.0,
        "sign(ra * d(tau)) is the protocol output Bob is entitled to; the "
        "positive amplifier ra preserves the sign while hiding |d|");
    labels.push_back(negative ? -1 : 1);
  }
  return labels;
}

}  // namespace ppds::core
