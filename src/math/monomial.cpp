#include "ppds/math/monomial.hpp"

#include <cmath>
#include <string>
#include <unordered_map>

namespace ppds::math {

namespace {

void enumerate(std::size_t var, unsigned remaining, Exponents& current,
               std::vector<Exponents>& out) {
  if (var + 1 == current.size()) {
    current[var] = static_cast<std::uint8_t>(remaining);
    out.push_back(current);
    return;
  }
  // Assign remaining..0 to this variable so the order is reverse-lex,
  // matching the textbook multinomial expansion reading order.
  for (unsigned k = remaining + 1; k-- > 0;) {
    current[var] = static_cast<std::uint8_t>(k);
    enumerate(var + 1, remaining - k, current, out);
  }
}

}  // namespace

std::vector<Exponents> monomials_of_degree(std::size_t n, unsigned p) {
  detail::require(n >= 1, "monomials_of_degree: need n >= 1");
  const std::uint64_t count = monomial_count(n, p);
  // Materialization cost is count * n exponent bytes; 2^22 monomials keeps
  // the largest supported expansion (a1a..a9a at 123 features, 325k
  // monomials) comfortable and rejects the madelon-at-500-features case
  // (21M monomials) that no single node can usefully serve.
  detail::require(count <= (std::uint64_t{1} << 22),
                  "monomials_of_degree: expansion too large to materialize");
  std::vector<Exponents> out;
  out.reserve(count);
  Exponents current(n, 0);
  enumerate(0, p, current, out);
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
  for (unsigned d = 1; d <= p; ++d) {
    auto level = monomials_of_degree(n, d);
    out.insert(out.end(), std::make_move_iterator(level.begin()),
               std::make_move_iterator(level.end()));
  }
  return out;
}

MonomialDag build_monomial_dag(const std::vector<Exponents>& monomials) {
  detail::require(monomials.size() < MonomialDag::kOne,
                  "build_monomial_dag: basis too large");
  MonomialDag dag;
  dag.parent.resize(monomials.size());
  dag.var.resize(monomials.size());
  // Exponent vectors keyed as byte strings: built once per basis, so the
  // string materialization is off the evaluation hot path.
  std::unordered_map<std::string, std::uint32_t> index;
  index.reserve(monomials.size() * 2);
  std::string key;
  for (std::size_t i = 0; i < monomials.size(); ++i) {
    const Exponents& exps = monomials[i];
    std::size_t last = exps.size();
    unsigned degree = 0;
    for (std::size_t j = 0; j < exps.size(); ++j) {
      degree += exps[j];
      if (exps[j] != 0) last = j;
    }
    detail::require(degree >= 1, "build_monomial_dag: constant monomial");
    dag.var[i] = static_cast<std::uint32_t>(last);
    if (degree == 1) {
      dag.parent[i] = MonomialDag::kOne;
    } else {
      key.assign(exps.begin(), exps.end());
      key[last] = static_cast<char>(exps[last] - 1);
      const auto it = index.find(key);
      detail::require(it != index.end(),
                      "build_monomial_dag: basis not closed/graded");
      dag.parent[i] = it->second;
    }
    key.assign(exps.begin(), exps.end());
    index.emplace(std::move(key), static_cast<std::uint32_t>(i));
  }
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
