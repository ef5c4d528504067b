#include "ppds/core/attacks.hpp"

#include <cmath>

#include "ppds/common/bytes.hpp"
#include "ppds/math/linalg.hpp"

namespace ppds::core {

namespace {

ModelEstimate fit(const std::vector<math::Vec>& samples,
                  const std::vector<double>& values, bool exact) {
  detail::require(!samples.empty() && samples.size() == values.size(),
                  "attack fit: bad inputs");
  const std::size_t dim = samples.front().size();
  const std::size_t unknowns = dim + 1;
  detail::require(samples.size() >= unknowns,
                  "attack fit: need at least dim+1 observations");
  const std::size_t rows = exact ? unknowns : samples.size();
  math::Matrix a(rows, unknowns);
  std::vector<double> b(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    detail::require(samples[r].size() == dim, "attack fit: ragged samples");
    for (std::size_t c = 0; c < dim; ++c) a(r, c) = samples[r][c];
    a(r, dim) = 1.0;
    b[r] = values[r];
  }
  const std::vector<double> solution =
      exact ? math::solve(std::move(a), std::move(b))
            : math::least_squares(a, b);
  ModelEstimate estimate;
  estimate.w.assign(solution.begin(), solution.begin() + static_cast<std::ptrdiff_t>(dim));
  estimate.b = solution[dim];
  return estimate;
}

}  // namespace

ModelEstimate estimate_hyperplane(const std::vector<math::Vec>& samples,
                                  const std::vector<double>& values) {
  return fit(samples, values, /*exact=*/false);
}

ModelEstimate reconstruct_exact(const std::vector<math::Vec>& samples,
                                const std::vector<double>& values) {
  return fit(samples, values, /*exact=*/true);
}

double direction_error_degrees(const math::Vec& estimated,
                               const math::Vec& truth) {
  const double cos_angle =
      std::abs(math::cosine_similarity(estimated, truth));
  return std::acos(std::fmin(1.0, cos_angle)) * 180.0 / M_PI;
}

OmpeInputRecovery recover_ompe_input(
    std::span<const std::uint8_t> request, unsigned q,
    const std::function<bool(const math::Vec&)>& plausible) {
  // Request layout (ompe.cpp): version u8, backend u8, arity u64, M u64,
  // m u64, then M records of (node, z_1 .. z_arity) as little-endian f64.
  ByteReader r(request);
  r.u8();  // version
  detail::require(r.u8() == 0, "recover_ompe_input: real-backend requests only");
  const std::size_t arity = r.u64();
  const std::size_t big_m = r.u64();
  const std::size_t m = r.u64();
  detail::require(m == std::size_t{q} + 1 && m <= big_m,
                  "recover_ompe_input: request keeps other than q + 1 pairs");
  std::vector<long double> nodes(big_m);
  std::vector<math::Vec> points(big_m, math::Vec(arity));
  for (std::size_t i = 0; i < big_m; ++i) {
    nodes[i] = r.f64();
    for (std::size_t j = 0; j < arity; ++j) points[i][j] = r.f64();
  }
  r.expect_end();

  OmpeInputRecovery out;
  std::vector<std::size_t> pick(m);
  for (std::size_t i = 0; i < m; ++i) pick[i] = i;
  std::vector<long double> weight(m);
  math::Vec alpha(arity);
  for (;;) {
    ++out.trials;
    // Lagrange weights at 0: L_i(0) = prod_{j != i} v_j / (v_j - v_i).
    for (std::size_t i = 0; i < m; ++i) {
      long double w = 1.0L;
      for (std::size_t j = 0; j < m; ++j) {
        if (j == i) continue;
        w *= nodes[pick[j]] / (nodes[pick[j]] - nodes[pick[i]]);
      }
      weight[i] = w;
    }
    for (std::size_t c = 0; c < arity; ++c) {
      long double acc = 0.0L;
      for (std::size_t i = 0; i < m; ++i) acc += weight[i] * points[pick[i]][c];
      alpha[c] = static_cast<double>(acc);
    }
    if (plausible(alpha)) {
      out.found = true;
      out.alpha = alpha;
      return out;
    }
    // Next combination in lexicographic order.
    std::size_t i = m;
    while (i > 0 && pick[i - 1] == big_m - m + i - 1) --i;
    if (i == 0) return out;
    ++pick[i - 1];
    for (std::size_t j = i; j < m; ++j) pick[j] = pick[j - 1] + 1;
  }
}

}  // namespace ppds::core
