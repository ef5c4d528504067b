#include "ppds/math/multipoly.hpp"

#include <cmath>
#include <map>
#include <string>
#include <unordered_map>

namespace ppds::math {

MultiPoly MultiPoly::affine(const std::vector<double>& w, double b) {
  MultiPoly p(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i] == 0.0) continue;
    Exponents e(w.size(), 0);
    e[i] = 1;
    p.add_term(w[i], std::move(e));
  }
  p.add_constant(b);
  return p;
}

void MultiPoly::add_term(double coeff, Exponents exps) {
  detail::require(exps.size() == arity_, "MultiPoly: exponent arity mismatch");
  terms_.push_back(Term{coeff, std::move(exps)});
}

void MultiPoly::add_constant(double delta) {
  for (Term& t : terms_) {
    bool constant = true;
    for (unsigned e : t.exps) {
      if (e != 0) {
        constant = false;
        break;
      }
    }
    if (constant) {
      t.coeff += delta;
      return;
    }
  }
  terms_.push_back(Term{delta, Exponents(arity_, 0)});
}

void MultiPoly::scale(double s) {
  for (Term& t : terms_) t.coeff *= s;
}

double MultiPoly::evaluate(const std::vector<double>& x) const {
  detail::require(x.size() == arity_, "MultiPoly::evaluate: arity mismatch");
  double acc = 0.0;
  for (const Term& t : terms_) {
    double v = t.coeff;
    for (std::size_t i = 0; i < arity_; ++i) {
      for (unsigned j = 0; j < t.exps[i]; ++j) v *= x[i];
    }
    acc += v;
  }
  return acc;
}

void MultiPoly::compact(double drop_below) {
  // Element-wise comparator instead of std::less<vector>: the defaulted
  // operator<=> lowers to a memcmp that GCC 12 -O3 misdiagnoses with
  // -Wstringop-overread (impossible [2^63, 2^64) bound), and all keys here
  // share the same arity anyway.
  struct ExpLess {
    bool operator()(const Exponents& a, const Exponents& b) const {
      if (a.size() != b.size()) return a.size() < b.size();
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) return a[i] < b[i];
      }
      return false;
    }
  };
  std::map<Exponents, double, ExpLess> merged;
  for (const Term& t : terms_) merged[t.exps] += t.coeff;
  terms_.clear();
  for (auto& [exps, coeff] : merged) {
    if (std::abs(coeff) > drop_below) {
      terms_.push_back(Term{coeff, exps});
    }
  }
  if (terms_.empty()) terms_.push_back(Term{0.0, Exponents(arity_, 0)});
}

MultiPoly MultiPoly::mul(const MultiPoly& a, const MultiPoly& b,
                         unsigned max_degree) {
  detail::require(a.arity_ == b.arity_, "MultiPoly::mul: arity mismatch");
  MultiPoly out(a.arity_);
  for (const Term& ta : a.terms_) {
    unsigned da = 0;
    for (unsigned e : ta.exps) da += e;
    for (const Term& tb : b.terms_) {
      unsigned db = 0;
      for (unsigned e : tb.exps) db += e;
      if (da + db > max_degree) continue;
      Exponents exps(a.arity_);
      for (std::size_t i = 0; i < a.arity_; ++i) exps[i] = ta.exps[i] + tb.exps[i];
      out.terms_.push_back(Term{ta.coeff * tb.coeff, std::move(exps)});
    }
  }
  out.compact();
  return out;
}

MultiPoly MultiPoly::pow(const MultiPoly& a, unsigned e, unsigned max_degree) {
  MultiPoly acc(a.arity_);
  acc.add_constant(1.0);
  for (unsigned i = 0; i < e; ++i) acc = mul(acc, a, max_degree);
  return acc;
}

MultiPoly MultiPoly::operator+(const MultiPoly& other) const {
  detail::require(arity_ == other.arity_, "MultiPoly::+: arity mismatch");
  MultiPoly out(arity_);
  out.terms_ = terms_;
  out.terms_.insert(out.terms_.end(), other.terms_.begin(), other.terms_.end());
  out.compact();
  return out;
}

unsigned MultiPoly::total_degree() const {
  unsigned best = 0;
  for (const Term& t : terms_) {
    unsigned d = 0;
    for (unsigned e : t.exps) d += e;
    if (d > best) best = d;
  }
  return best;
}

LinearExpansion linearize(const MultiPoly& poly,
                          const std::vector<Exponents>& basis) {
  std::unordered_map<std::string, std::size_t> index;
  index.reserve(basis.size() * 2);
  for (std::size_t i = 0; i < basis.size(); ++i) {
    detail::require(basis[i].size() == poly.arity(),
                    "linearize: basis arity mismatch");
    index.emplace(std::string(basis[i].begin(), basis[i].end()), i);
  }
  LinearExpansion out;
  out.coeffs.assign(basis.size(), 0.0);
  for (const Term& term : poly.terms()) {
    unsigned degree = 0;
    for (unsigned e : term.exps) degree += e;
    if (degree == 0) {
      out.constant += term.coeff;
      continue;
    }
    const auto it = index.find(std::string(term.exps.begin(), term.exps.end()));
    detail::require(it != index.end(), "linearize: term outside the basis");
    out.coeffs[it->second] += term.coeff;
  }
  return out;
}

}  // namespace ppds::math
