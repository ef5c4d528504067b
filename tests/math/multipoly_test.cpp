#include "ppds/math/multipoly.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "ppds/common/rng.hpp"
#include "ppds/field/m61.hpp"

namespace ppds::math {
namespace {

TEST(MultiPoly, AffineEvaluation) {
  const auto p = MultiPoly::affine({2.0, -1.0, 0.5}, 3.0);
  EXPECT_DOUBLE_EQ(p.evaluate({1.0, 1.0, 2.0}), 2.0 - 1.0 + 1.0 + 3.0);
  EXPECT_EQ(p.total_degree(), 1u);
  EXPECT_EQ(p.arity(), 3u);
}

TEST(MultiPoly, AffineSkipsZeroWeights) {
  const auto p = MultiPoly::affine({0.0, 5.0}, 0.0);
  EXPECT_EQ(p.terms().size(), 2u);  // one linear term + constant
}

TEST(MultiPoly, AddConstantMergesIntoExistingConstant) {
  MultiPoly p(2);
  p.add_constant(1.0);
  p.add_constant(2.0);
  EXPECT_EQ(p.terms().size(), 1u);
  EXPECT_DOUBLE_EQ(p.evaluate({0.0, 0.0}), 3.0);
}

TEST(MultiPoly, ScaleIsTheAmplificationStep) {
  auto p = MultiPoly::affine({1.0, 1.0}, -0.5);
  const double before = p.evaluate({0.3, 0.4});
  p.scale(7.0);
  EXPECT_DOUBLE_EQ(p.evaluate({0.3, 0.4}), 7.0 * before);
}

TEST(MultiPoly, HigherDegreeTerms) {
  MultiPoly p(2);
  p.add_term(3.0, {2, 1});  // 3 x^2 y
  p.add_term(-1.0, {0, 3}); // -y^3
  EXPECT_EQ(p.total_degree(), 3u);
  EXPECT_DOUBLE_EQ(p.evaluate({2.0, 3.0}), 3.0 * 4 * 3 - 27.0);
}

TEST(MultiPoly, ArityMismatchThrows) {
  MultiPoly p(2);
  EXPECT_THROW(p.add_term(1.0, {1}), InvalidArgument);
  p.add_term(1.0, {1, 0});
  EXPECT_THROW(p.evaluate({1.0}), InvalidArgument);
}

TEST(MultiPoly, CompactMergesLikeTerms) {
  MultiPoly p(1);
  p.add_term(2.0, {1});
  p.add_term(3.0, {1});
  p.compact();
  EXPECT_EQ(p.terms().size(), 1u);
  EXPECT_DOUBLE_EQ(p.evaluate({1.0}), 5.0);
}

TEST(MultiPoly, CompactDropsCancelledTerms) {
  MultiPoly p(1);
  p.add_term(2.0, {1});
  p.add_term(-2.0, {1});
  p.compact();
  // Never empty: a zero constant placeholder remains.
  ASSERT_EQ(p.terms().size(), 1u);
  EXPECT_DOUBLE_EQ(p.evaluate({5.0}), 0.0);
}

TEST(MultiPoly, MulMatchesPointwiseProduct) {
  Rng rng(3);
  MultiPoly a(2), b(2);
  a.add_term(1.5, {1, 0});
  a.add_constant(-0.5);
  b.add_term(2.0, {0, 1});
  b.add_term(1.0, {1, 1});
  const MultiPoly c = MultiPoly::mul(a, b, 8);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    EXPECT_NEAR(c.evaluate(x), a.evaluate(x) * b.evaluate(x), 1e-12);
  }
}

TEST(MultiPoly, MulTruncatesAboveMaxDegree) {
  MultiPoly a(1), b(1);
  a.add_term(1.0, {2});
  b.add_term(1.0, {2});
  const MultiPoly c = MultiPoly::mul(a, b, 3);  // x^4 dropped
  EXPECT_DOUBLE_EQ(c.evaluate({2.0}), 0.0);
}

TEST(MultiPoly, PowMatchesRepeatedMul) {
  MultiPoly a(2);
  a.add_term(1.0, {1, 0});
  a.add_term(-2.0, {0, 1});
  a.add_constant(0.5);
  const MultiPoly p3 = MultiPoly::pow(a, 3, 3);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const double base = a.evaluate(x);
    EXPECT_NEAR(p3.evaluate(x), base * base * base, 1e-12);
  }
}

TEST(MultiPoly, PowZeroIsOne) {
  MultiPoly a(1);
  a.add_term(4.0, {1});
  const MultiPoly one = MultiPoly::pow(a, 0, 5);
  EXPECT_DOUBLE_EQ(one.evaluate({123.0}), 1.0);
}

TEST(MultiPoly, AdditionOperator) {
  MultiPoly a(1), b(1);
  a.add_term(1.0, {1});
  b.add_term(2.0, {1});
  b.add_constant(3.0);
  const MultiPoly c = a + b;
  EXPECT_DOUBLE_EQ(c.evaluate({2.0}), 2.0 + 4.0 + 3.0);
}

/// Random sparse polynomial: \p terms terms of total degree <= \p max_degree
/// over \p arity variables (constants allowed).
MultiPoly random_poly(Rng& rng, std::size_t arity, std::size_t terms,
                      unsigned max_degree) {
  MultiPoly p(arity);
  for (std::size_t t = 0; t < terms; ++t) {
    Exponents exps(arity, 0);
    unsigned budget = static_cast<unsigned>(
        rng.uniform_u64(0, max_degree));
    while (budget > 0) {
      const std::size_t var = rng.uniform_u64(0, arity - 1);
      const unsigned e = static_cast<unsigned>(rng.uniform_u64(1, budget));
      exps[var] = static_cast<std::uint8_t>(exps[var] + e);
      budget -= e;
    }
    p.add_term(rng.uniform(-3.0, 3.0), std::move(exps));
  }
  return p;
}

TEST(Linearize, MatchesNaiveEvaluationOnRandomPolys) {
  Rng rng(31);
  for (int round = 0; round < 20; ++round) {
    const std::size_t arity = 1 + rng.uniform_u64(0, 4);
    const MultiPoly p = random_poly(rng, arity, 1 + rng.uniform_u64(0, 9), 5);
    const std::vector<Exponents> basis = monomials_up_to(arity, 5);
    const LinearExpansion form = linearize(p, basis);
    ASSERT_EQ(form.coeffs.size(), basis.size());
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> x(arity);
      for (auto& v : x) v = rng.uniform(-1.5, 1.5);
      const double naive = p.evaluate(x);
      const std::vector<double> tau = monomial_transform(basis, x);
      double fast = form.constant;
      for (std::size_t j = 0; j < tau.size(); ++j) fast += form.coeffs[j] * tau[j];
      EXPECT_NEAR(fast, naive, 1e-12 * (1.0 + std::abs(naive)))
          << "round " << round;
    }
  }
}

TEST(Linearize, ExactlyMatchesNaiveOverTheField) {
  // Integer coefficients survive the double expansion exactly, and field
  // arithmetic is exact: the feature-map evaluation (DAG transform, then a
  // dot) must equal the per-term walk — EXPECT_EQ, not NEAR.
  using field::M61;
  Rng rng(32);
  for (int round = 0; round < 10; ++round) {
    const std::size_t arity = 1 + rng.uniform_u64(0, 3);
    const MultiPoly real = random_poly(rng, arity, 1 + rng.uniform_u64(0, 7), 4);
    MultiPoly p(arity);
    for (const Term& t : real.terms()) {
      p.add_term(std::round(t.coeff * 1000.0), t.exps);
    }
    const std::vector<Exponents> basis = monomials_up_to(arity, 4);
    const LinearExpansion form = linearize(p, basis);
    const MonomialDag dag = build_monomial_dag(arity, 4);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<M61> z(arity);
      for (auto& v : z) v = M61(rng() >> 3);
      M61 naive;
      for (const Term& t : p.terms()) {
        M61 v = M61::from_signed(static_cast<std::int64_t>(t.coeff));
        for (std::size_t i = 0; i < t.exps.size(); ++i) {
          for (unsigned e = 0; e < t.exps[i]; ++e) v = v * z[i];
        }
        naive = naive + v;
      }
      std::vector<M61> tau(basis.size());
      dag.evaluate(std::span<const M61>(z), std::span<M61>(tau));
      M61 fast = M61::from_signed(static_cast<std::int64_t>(form.constant));
      for (std::size_t j = 0; j < tau.size(); ++j) {
        fast = fast +
               M61::from_signed(static_cast<std::int64_t>(form.coeffs[j])) *
                   tau[j];
      }
      EXPECT_EQ(fast.value(), naive.value()) << "round " << round;
    }
  }
}

TEST(Linearize, ConstantOnlyPolynomial) {
  MultiPoly p(3);
  p.add_constant(4.25);
  const LinearExpansion form = linearize(p, monomials_up_to(3, 2));
  EXPECT_DOUBLE_EQ(form.constant, 4.25);
  for (double c : form.coeffs) EXPECT_EQ(c, 0.0);
}

TEST(Linearize, MismatchesThrow) {
  MultiPoly p(2);
  p.add_term(1.0, {2, 1});
  // Degree-3 term outside a degree-2 basis.
  EXPECT_THROW(linearize(p, monomials_up_to(2, 2)), InvalidArgument);
  // Basis over the wrong number of variables.
  EXPECT_THROW(linearize(p, monomials_up_to(3, 3)), InvalidArgument);
  EXPECT_NO_THROW(linearize(p, monomials_up_to(2, 3)));
}

}  // namespace
}  // namespace ppds::math
