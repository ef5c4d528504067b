#include "ppds/math/monomial.hpp"

#include <algorithm>
#include <cmath>

namespace ppds::math {

namespace {

/// Size of the degree-[lo, hi] basis over n variables; refuses more than
/// 2^22 monomials (madelon at 500 features and degree 3 has 21M).
std::uint64_t basis_size(std::size_t n, unsigned lo, unsigned hi) {
  detail::require(n >= 1, "monomial basis: need n >= 1");
  // Degrees 0..d over n variables are the degree-d monomials over n + 1.
  const std::uint64_t size =
      lo > hi ? 0
              : monomial_count(n + 1, hi) -
                    (lo == 0 ? 0 : monomial_count(n + 1, lo - 1));
  detail::require(size <= (std::uint64_t{1} << 22),
                  "monomial basis: expansion too large");
  return size;
}

void enumerate(std::size_t var, unsigned remaining, Exponents& current,
               const std::function<void(const Exponents&)>& visit) {
  if (remaining == 0 || var + 1 == current.size()) {
    current[var] = static_cast<std::uint8_t>(remaining);
    std::fill(current.begin() + static_cast<std::ptrdiff_t>(var) + 1,
              current.end(), std::uint8_t{0});
    visit(current);
    return;
  }
  // Assign remaining..0 to this variable so the order is reverse-lex,
  // matching the textbook multinomial expansion reading order.
  for (unsigned k = remaining + 1; k-- > 0;) {
    current[var] = static_cast<std::uint8_t>(k);
    enumerate(var + 1, remaining - k, current, visit);
  }
}

}  // namespace

void for_each_monomial(std::size_t n, unsigned lo, unsigned hi,
                       const std::function<void(const Exponents&)>& visit) {
  basis_size(n, lo, hi);  // refuses an oversized basis before any work
  Exponents current(n, 0);
  for (unsigned d = lo; d <= hi; ++d) enumerate(0, d, current, visit);
}

std::vector<Exponents> monomials_of_degree(std::size_t n, unsigned p) {
  std::vector<Exponents> out;
  for_each_monomial(n, p, p, [&out](const Exponents& e) { out.push_back(e); });
  return out;
}

std::uint64_t monomial_count(std::size_t n, unsigned p) {
  // C(n + p - 1, p) with overflow detection.
  std::uint64_t result = 1;
  for (unsigned i = 1; i <= p; ++i) {
    const std::uint64_t factor = n - 1 + i;
    detail::require(result <= ~std::uint64_t{0} / factor,
                    "monomial_count: overflow");
    result = result * factor / i;  // exact at each step: C(n-1+i, i)
  }
  return result;
}

double multinomial_coefficient(const Exponents& exps) {
  double result = 1.0;
  unsigned used = 0;
  // p! / prod k_i! computed incrementally as prod over i of C(used + k_i, k_i).
  for (unsigned k : exps) {
    for (unsigned j = 1; j <= k; ++j) {
      result = result * static_cast<double>(used + j) / static_cast<double>(j);
    }
    used += k;
  }
  return result;
}

std::vector<Exponents> monomials_up_to(std::size_t n, unsigned p) {
  std::vector<Exponents> out;
  for_each_monomial(n, 1, p, [&out](const Exponents& e) { out.push_back(e); });
  return out;
}

MonomialDag build_monomial_dag(std::size_t n, unsigned p) {
  const std::uint64_t size = basis_size(n, 1, p);
  // tail[i * p + m]: how many degree-m monomials t_i..t_{n-1} have.
  std::vector<std::uint64_t> tail(n * p);
  for (std::size_t i = 0; i < n; ++i) {
    for (unsigned m = 0; m < p; ++m) tail[i * p + m] = monomial_count(n - i, m);
  }
  MonomialDag dag;
  dag.parent.reserve(size);
  dag.var.reserve(size);
  for_each_monomial(n, 1, p, [&](const Exponents& exps) {
    std::size_t last = 0;
    unsigned degree = 0;
    for (std::size_t i = 0; i < n; ++i) {
      degree += exps[i];
      if (exps[i] != 0) last = i;
    }
    dag.var.push_back(static_cast<std::uint32_t>(last));
    if (degree == 1) {
      dag.parent.push_back(MonomialDag::kOne);
      return;
    }
    // Rank of the parent e' (t_last decremented): the lower levels, then per
    // i < last the predecessors matching e' before t_i with t_i above e'_i =
    // exps[i], leaving degree r_i - e'_i - 1 (r_i: e''s degree on t_i..).
    std::uint64_t rank = basis_size(n, 1, degree - 2);
    unsigned r = degree - 1;
    for (std::size_t i = 0; i < last; ++i) {
      if (r > exps[i]) rank += tail[i * p + (r - exps[i] - 1)];
      r -= exps[i];
    }
    dag.parent.push_back(static_cast<std::uint32_t>(rank));
  });
  return dag;
}

std::vector<double> monomial_transform(const std::vector<Exponents>& monomials,
                                       const std::vector<double>& t) {
  std::vector<double> tau;
  tau.reserve(monomials.size());
  for (const Exponents& exps : monomials) {
    detail::require(exps.size() == t.size(),
                    "monomial_transform: dimension mismatch");
    double value = 1.0;
    for (std::size_t i = 0; i < exps.size(); ++i) {
      for (unsigned j = 0; j < exps[i]; ++j) value *= t[i];
    }
    tau.push_back(value);
  }
  return tau;
}

}  // namespace ppds::math
