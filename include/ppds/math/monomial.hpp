#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ppds/common/error.hpp"

/// \file monomial.hpp
/// Monomial machinery for the nonlinear classification scheme (Section IV-B).
///
/// A degree-p polynomial kernel turns the decision function into a
/// polynomial over the n' = C(n+p-1, n-1) monomials of exact total degree p:
///     tau_j = prod_i t_i^{k_i},   k_1 + ... + k_n = p.
/// This header enumerates the exponent vectors in a canonical order
/// (reverse-lexicographic), computes multinomial coefficients, and applies
/// the "monomial transform" t -> tau that both Alice (to expand her decision
/// function) and Bob (to expand his sample) perform locally.

namespace ppds::math {

/// Exponent vector of one monomial: exps[i] is the power of t_i.
/// uint8_t keeps the materialized bases small — the a1a..a9a expansion has
/// 325k monomials over 123 variables, and kernel degrees never exceed 255.
using Exponents = std::vector<std::uint8_t>;

/// All exponent vectors over \p n variables with total degree exactly \p p,
/// in a deterministic canonical order shared by both protocol parties.
std::vector<Exponents> monomials_of_degree(std::size_t n, unsigned p);

/// Number of monomials of exact degree p over n variables: C(n+p-1, p).
/// Throws InvalidArgument if the count does not fit in 64 bits.
std::uint64_t monomial_count(std::size_t n, unsigned p);

/// Multinomial coefficient p! / (k_1! ... k_n!), where sum(k_i) == p.
double multinomial_coefficient(const Exponents& exps);

/// Evaluates every monomial at the point \p t (the transform t -> tau).
std::vector<double> monomial_transform(const std::vector<Exponents>& monomials,
                                       const std::vector<double>& t);

/// All monomials over \p n variables with total degree in [1, p], in GRADED
/// canonical order: ascending degree, each degree level in the
/// monomials_of_degree order. Both protocol parties derive the same list.
///
/// The graded order is what makes the basis cheap to evaluate: every
/// degree-d monomial is a degree-(d-1) monomial (which appears EARLIER in
/// the list) times one variable, so the whole basis evaluates in one field
/// multiplication per monomial (see MonomialDag) instead of a per-term
/// power walk.
std::vector<Exponents> monomials_up_to(std::size_t n, unsigned p);

/// Evaluation DAG over a monomial basis: node i's value is
/// value[parent[i]] * x[var[i]], with kOne standing for the constant-1 root
/// (degree-1 monomials multiply a variable into 1). Built once per basis
/// (e.g. per ClassificationProfile) and evaluated in size() multiplications
/// per point — the hot path of the nonlinear classification scheme.
///
/// The parent of a monomial is the monomial with its LAST nonzero exponent
/// decremented. That choice reproduces the factor order of the naive
/// ascending-variable product, so double-precision results are bit-identical
/// to monomial_transform (and field results are exact either way).
struct MonomialDag {
  static constexpr std::uint32_t kOne = 0xffffffffu;

  std::vector<std::uint32_t> parent;  ///< index of the divisor node, or kOne
  std::vector<std::uint32_t> var;     ///< variable multiplied onto the parent

  std::size_t size() const { return parent.size(); }
  bool empty() const { return parent.empty(); }

  /// Evaluates every monomial at \p x, times \p seed (the first factor; 1 is
  /// exact), into \p out (both sized size()). Works over any ring with
  /// operator* (double, field::M61, ...).
  template <typename R>
  void evaluate(std::span<const R> x, std::span<R> out,
                const R& seed = R(1)) const {
    detail::require(out.size() == parent.size(),
                    "MonomialDag: output size mismatch");
    for (std::size_t i = 0; i < parent.size(); ++i) {
      out[i] = (parent[i] == kOne ? seed : out[parent[i]]) * x[var[i]];
    }
  }
};

/// Builds the evaluation DAG for \p monomials. Requirements (satisfied by
/// monomials_up_to): every monomial has total degree >= 1, and for each
/// monomial of degree >= 2 the parent (last nonzero exponent decremented)
/// appears earlier in the list. Throws InvalidArgument otherwise.
MonomialDag build_monomial_dag(const std::vector<Exponents>& monomials);

}  // namespace ppds::math
