#include "ppds/math/monomial.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <span>
#include <utility>

#include "ppds/common/rng.hpp"
#include "ppds/math/vec.hpp"

namespace ppds::math {
namespace {

TEST(Monomial, CountMatchesClosedForm) {
  EXPECT_EQ(monomial_count(1, 5), 1u);
  EXPECT_EQ(monomial_count(2, 3), 4u);    // C(4,3)
  EXPECT_EQ(monomial_count(8, 3), 120u);  // C(10,3) — the diabetes expansion
  EXPECT_EQ(monomial_count(123, 3), 317750u);  // the a1a..a9a expansion
  EXPECT_EQ(monomial_count(60, 3), 37820u);    // splice
}

TEST(Monomial, CountDegreeZero) { EXPECT_EQ(monomial_count(5, 0), 1u); }

TEST(Monomial, EnumerationMatchesCount) {
  for (std::size_t n : {1u, 2u, 3u, 5u}) {
    for (unsigned p : {1u, 2u, 3u, 4u}) {
      const auto monos = monomials_of_degree(n, p);
      EXPECT_EQ(monos.size(), monomial_count(n, p)) << n << " " << p;
    }
  }
}

TEST(Monomial, EnumerationExponentsSumToP) {
  const auto monos = monomials_of_degree(4, 3);
  std::set<Exponents> unique;
  for (const Exponents& e : monos) {
    ASSERT_EQ(e.size(), 4u);
    unsigned total = 0;
    for (unsigned k : e) total += k;
    EXPECT_EQ(total, 3u);
    unique.insert(e);
  }
  EXPECT_EQ(unique.size(), monos.size());  // no duplicates
}

TEST(Monomial, EnumerationDeterministicOrder) {
  // Both protocol parties must agree on the order.
  const auto a = monomials_of_degree(6, 3);
  const auto b = monomials_of_degree(6, 3);
  EXPECT_EQ(a, b);
  // First entry is t_0^p in reverse-lex order.
  EXPECT_EQ(a.front(), (Exponents{3, 0, 0, 0, 0, 0}));
  EXPECT_EQ(a.back(), (Exponents{0, 0, 0, 0, 0, 3}));
}

TEST(Monomial, TooLargeExpansionRejected) {
  // madelon at 500 features and degree 3: 21M monomials, refused by the
  // collectors, the generator and the DAG builder before any allocation.
  EXPECT_THROW(monomials_of_degree(500, 3), InvalidArgument);
  EXPECT_THROW(monomials_up_to(500, 3), InvalidArgument);
  std::size_t visited = 0;
  EXPECT_THROW(for_each_monomial(500, 1, 3,
                                 [&visited](const Exponents&) { ++visited; }),
               InvalidArgument);
  EXPECT_EQ(visited, 0u);
  EXPECT_THROW(build_monomial_dag(500, 3), InvalidArgument);
}

TEST(Monomial, MultinomialCoefficients) {
  EXPECT_DOUBLE_EQ(multinomial_coefficient({3, 0}), 1.0);
  EXPECT_DOUBLE_EQ(multinomial_coefficient({2, 1}), 3.0);
  EXPECT_DOUBLE_EQ(multinomial_coefficient({1, 1, 1}), 6.0);
  EXPECT_DOUBLE_EQ(multinomial_coefficient({2, 2}), 6.0);   // 4!/(2!2!)
  EXPECT_DOUBLE_EQ(multinomial_coefficient({1, 2, 3}), 60.0);  // 6!/(1!2!3!)
}

TEST(Monomial, MultinomialTheoremHolds) {
  // sum over monomials of multinom(k) * prod x_i^{k_i} == (sum x_i)^p
  const std::vector<double> x{0.3, -0.7, 1.2};
  for (unsigned p : {2u, 3u, 4u}) {
    const auto monos = monomials_of_degree(x.size(), p);
    const auto tau = monomial_transform(monos, x);
    double total = 0.0;
    for (std::size_t j = 0; j < monos.size(); ++j) {
      total += multinomial_coefficient(monos[j]) * tau[j];
    }
    const double direct = std::pow(x[0] + x[1] + x[2], static_cast<double>(p));
    EXPECT_NEAR(total, direct, 1e-12) << "p=" << p;
  }
}

TEST(Monomial, DotPowerIdentity) {
  // The identity the nonlinear scheme rests on (Section IV-B):
  // (x . t)^p == sum_kappa multinom(kappa) prod x^kappa prod t^kappa.
  Rng rng(5);
  const std::size_t n = 5;
  const unsigned p = 3;
  const auto monos = monomials_of_degree(n, p);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> x(n), t(n);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    for (auto& v : t) v = rng.uniform(-1.0, 1.0);
    const auto taux = monomial_transform(monos, x);
    const auto taut = monomial_transform(monos, t);
    double expanded = 0.0;
    for (std::size_t j = 0; j < monos.size(); ++j) {
      expanded += multinomial_coefficient(monos[j]) * taux[j] * taut[j];
    }
    EXPECT_NEAR(expanded, std::pow(dot(x, t), 3.0), 1e-12);
  }
}

TEST(Monomial, TransformDimensionMismatchThrows) {
  const auto monos = monomials_of_degree(3, 2);
  EXPECT_THROW(monomial_transform(monos, {1.0, 2.0}), InvalidArgument);
}

TEST(Monomial, UpToConcatenatesDegreeLevels) {
  // monomials_up_to is graded: the degree-d block sits after all lower
  // degrees and matches monomials_of_degree(n, d) exactly. Both the protocol
  // wire order and the DAG builder depend on this.
  const std::size_t n = 4;
  const unsigned p = 3;
  const auto all = monomials_up_to(n, p);
  std::size_t offset = 0;
  for (unsigned d = 1; d <= p; ++d) {
    const auto level = monomials_of_degree(n, d);
    ASSERT_LE(offset + level.size(), all.size());
    for (std::size_t j = 0; j < level.size(); ++j) {
      EXPECT_EQ(all[offset + j], level[j]) << "d=" << d << " j=" << j;
    }
    offset += level.size();
  }
  EXPECT_EQ(offset, all.size());
}

TEST(Monomial, DagMatchesTransformBitwise) {
  // The DAG multiplies in the same ascending-variable order as the naive
  // transform, so the doubles must match BIT FOR BIT — the nonlinear client
  // transform swaps one for the other without renegotiating anything.
  Rng rng(17);
  for (auto [n, p] : {std::pair<std::size_t, unsigned>{5, 3}, {3, 4}, {8, 2},
                      {1, 6}}) {
    const auto monos = monomials_up_to(n, p);
    const MonomialDag dag = build_monomial_dag(n, p);
    ASSERT_EQ(dag.size(), monos.size());
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> t(n);
      for (auto& v : t) v = rng.uniform(-2.0, 2.0);
      const auto naive = monomial_transform(monos, t);
      std::vector<double> via_dag(dag.size());
      dag.evaluate(std::span<const double>(t), std::span<double>(via_dag));
      for (std::size_t j = 0; j < monos.size(); ++j) {
        EXPECT_EQ(naive[j], via_dag[j]) << "n=" << n << " p=" << p << " j=" << j;
      }
    }
  }
}

TEST(Monomial, DagSeedIsTheFirstFactor) {
  // A seeded sweep is seed * prod t^kappa with the seed multiplied first:
  // the server's weight expansion runs one per support vector, seeded with
  // its coefficient.
  Rng rng(19);
  const auto monos = monomials_up_to(4, 3);
  const MonomialDag dag = build_monomial_dag(4, 3);
  std::vector<double> t(4);
  for (auto& v : t) v = rng.uniform(-2.0, 2.0);
  const double seed = rng.uniform(-3.0, 3.0);
  std::vector<double> seeded(dag.size());
  dag.evaluate(std::span<const double>(t), std::span<double>(seeded), seed);
  for (std::size_t j = 0; j < monos.size(); ++j) {
    double expect = seed;
    for (std::size_t i = 0; i < t.size(); ++i) {
      for (unsigned e = 0; e < monos[j][i]; ++e) expect *= t[i];
    }
    EXPECT_EQ(seeded[j], expect) << "j=" << j;
  }
}

TEST(Monomial, DagParentsMatchListSearch) {
  // The builder ranks each parent combinatorially; the reference is the
  // list search it replaced: collect the basis, then look up each node's
  // exponents with the last nonzero one decremented.
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u}) {
    for (unsigned p : {1u, 2u, 3u, 4u, 6u}) {
      const auto monos = monomials_up_to(n, p);
      std::map<Exponents, std::uint32_t> index;
      for (std::size_t i = 0; i < monos.size(); ++i) {
        index.emplace(monos[i], static_cast<std::uint32_t>(i));
      }
      const MonomialDag dag = build_monomial_dag(n, p);
      ASSERT_EQ(dag.size(), monos.size()) << "n=" << n << " p=" << p;
      for (std::size_t i = 0; i < monos.size(); ++i) {
        Exponents parent = monos[i];
        std::size_t last = n;
        unsigned degree = 0;
        for (std::size_t j = 0; j < n; ++j) {
          degree += parent[j];
          if (parent[j] != 0) last = j;
        }
        ASSERT_LT(last, n);
        EXPECT_EQ(dag.var[i], last) << "n=" << n << " p=" << p << " i=" << i;
        --parent[last];
        const std::uint32_t want =
            degree == 1 ? MonomialDag::kOne : index.at(parent);
        EXPECT_EQ(dag.parent[i], want) << "n=" << n << " p=" << p << " i=" << i;
      }
    }
  }
}

TEST(Monomial, VisitorStreamsTheGradedOrder) {
  // for_each_monomial is the one generator: what it visits, in order, is
  // what the collectors return, and an empty degree range visits nothing.
  std::vector<Exponents> seen;
  for_each_monomial(4, 2, 3, [&seen](const Exponents& e) { seen.push_back(e); });
  auto want = monomials_of_degree(4, 2);
  const auto cubes = monomials_of_degree(4, 3);
  want.insert(want.end(), cubes.begin(), cubes.end());
  EXPECT_EQ(seen, want);
  std::size_t visited = 0;
  for_each_monomial(4, 1, 0, [&visited](const Exponents&) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_TRUE(build_monomial_dag(4, 0).empty());
}

TEST(Monomial, DagEvaluateSizeMismatchThrows) {
  const MonomialDag dag = build_monomial_dag(2, 2);
  std::vector<double> t{0.5, 0.25};
  std::vector<double> out(dag.size() + 1);
  EXPECT_THROW(
      dag.evaluate(std::span<const double>(t), std::span<double>(out)),
      InvalidArgument);
}

}  // namespace
}  // namespace ppds::math
