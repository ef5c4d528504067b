#pragma once

#include <cstdint>
#include <functional>
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

/// Exponent vector of one monomial: exps[i] is the power of t_i (kernel
/// degrees never exceed 255).
using Exponents = std::vector<std::uint8_t>;

/// The one generator of the basis both parties derive from (n, degree):
/// calls \p visit on every exponent vector over \p n variables with total
/// degree in [\p lo, \p hi], in GRADED order (ascending degree, each level
/// reverse-lexicographic), through one reused buffer. Throws
/// InvalidArgument for n == 0 or a basis above 2^22 monomials (a1a: 325k).
void for_each_monomial(std::size_t n, unsigned lo, unsigned hi,
                       const std::function<void(const Exponents&)>& visit);

/// The degree-\p p level of for_each_monomial, collected (small bases only).
std::vector<Exponents> monomials_of_degree(std::size_t n, unsigned p);

/// Number of monomials of exact degree p over n variables: C(n+p-1, p).
/// Throws InvalidArgument if the count does not fit in 64 bits.
std::uint64_t monomial_count(std::size_t n, unsigned p);

/// Multinomial coefficient p! / (k_1! ... k_n!), where sum(k_i) == p.
double multinomial_coefficient(const Exponents& exps);

/// Evaluates every monomial at the point \p t (the transform t -> tau).
std::vector<double> monomial_transform(const std::vector<Exponents>& monomials,
                                       const std::vector<double>& t);

/// Degrees 1..\p p of for_each_monomial, collected (small bases only).
/// Graded, so every monomial's divisor precedes it: see MonomialDag.
std::vector<Exponents> monomials_up_to(std::size_t n, unsigned p);

/// Evaluation DAG over a monomial basis: node i's value is
/// value[parent[i]] * x[var[i]], with kOne standing for the constant-1 root
/// (degree-1 monomials multiply a variable into 1), so the graded basis
/// evaluates in size() multiplications per point instead of a per-term
/// power walk — the hot path of the nonlinear classification scheme.
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

/// The DAG of monomials_up_to(n, p), built from the generator without
/// storing the basis: each parent is found by its combinatorial rank. Same
/// size cap as for_each_monomial, checked before anything is allocated.
MonomialDag build_monomial_dag(std::size_t n, unsigned p);

}  // namespace ppds::math
