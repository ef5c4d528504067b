#pragma once

#include <cstdint>
#include <vector>

#include "ppds/common/error.hpp"
#include "ppds/math/monomial.hpp"

/// \file multipoly.hpp
/// Sparse multivariate polynomials — how the secrets are built.
///
/// In the paper the sender's secret is a multivariate polynomial P:
///   * linear classification:   P(t) = ra * (w . t + b), degree 1 over n vars
///   * nonlinear classification: the kernel or its Taylor truncation, degree
///     p over n vars
///   * similarity stage 1:      P(t) = ram * (mA . t) or its kernel form
///   * similarity stage 2:      Eq. (7), degree 4 over 2 vars.
/// Every such P is linear over the public monomial feature map of its
/// variables, so the OMPE sender never evaluates a MultiPoly: the owner
/// linearize()s it over monomials_up_to(n, p) and the receiver maps its
/// input through the same basis. MultiPoly stays the plaintext oracle.

namespace ppds::math {

/// One term: coeff * prod_i x_i^{exps[i]}.
struct Term {
  double coeff = 0.0;
  Exponents exps;
};

/// Sparse multivariate polynomial over doubles.
class MultiPoly {
 public:
  MultiPoly() = default;

  /// \p arity — number of variables; every term must carry that many exponents.
  explicit MultiPoly(std::size_t arity) : arity_(arity) {}

  /// Convenience: builds the affine polynomial w . x + b.
  static MultiPoly affine(const std::vector<double>& w, double b);

  void add_term(double coeff, Exponents exps);

  /// Adds \p delta to the constant term.
  void add_constant(double delta);

  /// Multiplies every coefficient by \p s (the paper's amplification step).
  void scale(double s);

  double evaluate(const std::vector<double>& x) const;

  /// Largest total degree across terms.
  unsigned total_degree() const;

  /// Merges like terms and drops (near-)zero coefficients.
  void compact(double drop_below = 0.0);

  /// Product of two polynomials over the same variables, discarding any
  /// resulting term of total degree > max_degree (used by the Taylor
  /// truncation of the RBF/sigmoid kernels).
  static MultiPoly mul(const MultiPoly& a, const MultiPoly& b,
                       unsigned max_degree);

  /// a^e with the same truncation rule.
  static MultiPoly pow(const MultiPoly& a, unsigned e, unsigned max_degree);

  MultiPoly operator+(const MultiPoly& other) const;

  std::size_t arity() const { return arity_; }
  const std::vector<Term>& terms() const { return terms_; }

 private:
  std::size_t arity_ = 0;
  std::vector<Term> terms_;
};

/// Coefficient form of a polynomial that is linear over a public feature
/// map: P(x) = coeffs . tau(x) + constant, where tau evaluates a monomial
/// basis (e.g. monomials_up_to) at x. This is the only shape the OMPE
/// sender evaluates.
struct LinearExpansion {
  std::vector<double> coeffs;  ///< one per basis monomial, basis order
  double constant = 0.0;
};

/// Rewrites \p poly over the monomial \p basis: every non-constant term
/// adds its coefficient to its monomial's slot, the constant term goes to
/// `constant`. Throws InvalidArgument when a term's monomial is not in the
/// basis or the arities differ.
LinearExpansion linearize(const MultiPoly& poly,
                          const std::vector<Exponents>& basis);

}  // namespace ppds::math
