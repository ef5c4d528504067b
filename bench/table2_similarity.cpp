/// Regenerates TABLE II — "Privacy-preserving Data Similarity Evaluation":
/// a diabetes-analogue pool of 768 samples is split into four subsets
/// S1..S4 of 192 samples; each subset trains a linear SVM; all six pairs
/// are compared by (a) the average two-sample Kolmogorov-Smirnov statistic
/// over the 8 feature dimensions and (b) the private triangle metric T
/// (printed as 10^3 * T as in the paper). The paper's claim is that both
/// columns order the pairs the same way. The run fails (exit 1) if any
/// private T leaves the tolerance tests/core/similarity_test.cpp holds the
/// protocol to at this dimension: |T_priv - T_plain| <= 1e-5 + 1e-3 T_plain.

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <numeric>

#include "bench_util.hpp"

namespace {
double rngclamp(double v) { return std::fmin(1.0, std::fmax(-1.0, v)); }
}  // namespace

#include "ppds/core/similarity.hpp"
#include "ppds/data/kstest.hpp"
#include "ppds/data/synthetic.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/smo.hpp"

int main() {
  using namespace ppds;
  bench::banner("TABLE II: Privacy-preserving data similarity evaluation");
  bench::note(
      "diabetes analogue, 4 subsets x 192 samples; K-S column uses the "
      "normalized statistic D*sqrt(nm/(n+m)) whose scale matches the paper");

  // Four 8-dimensional subsets of 192 samples, as in the paper's diabetes
  // split, with GRADED differences mimicking four related-but-distinct
  // populations: subset s's features are mean-shifted by 0.12*s and its
  // label boundary rotated by 0.25*s rad. Both the K-S statistic (feature
  // marginals) and the triangle metric T (boundary geometry) then grow with
  // the population gap |i - j|, which is the "same trend" Table II reports.
  // (The paper's own subsets are random splits of one dataset; with
  // identical distributions both measures read "very similar" and their
  // fine ordering is sampling noise — see EXPERIMENTS.md.)
  const std::size_t dim = 8;
  std::vector<svm::Dataset> subsets;
  Rng gen(20240706);
  for (int s = 0; s < 4; ++s) {
    const double phi = 0.25 * s;
    const double mu = 0.12 * s;
    svm::Dataset subset;
    while (subset.size() < 192) {
      math::Vec x(dim);
      for (std::size_t d = 0; d < dim; ++d) {
        x[d] = rngclamp(gen.uniform(-1.0, 1.0) + (d < 3 ? mu : 0.0));
      }
      // Boundary normal rotated in the (x0, x1) plane by phi, passing
      // through the subset's mean.
      const double score = std::cos(phi) * (x[0] - mu) +
                           std::sin(phi) * (x[1] - mu) + 0.3 * (x[2] - mu) +
                           gen.normal(0.0, 0.05);
      subset.push(std::move(x), score >= 0.0 ? 1 : -1);
    }
    subsets.push_back(std::move(subset));
  }

  std::vector<svm::SvmModel> models;
  for (const auto& subset : subsets) {
    models.push_back(svm::train_svm(subset, svm::Kernel::linear()));
  }

  const core::DataSpace space;
  const auto cfg = core::SchemeConfig::fast_simulation();
  struct Row {
    std::string pair;
    double ks;
    double t_scaled;
    double plain_t_scaled;
  };
  std::vector<Row> rows;
  int out_of_tolerance = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      const auto ks = data::ks_compare(subsets[i], subsets[j]);
      core::SimilarityServer server(models[i], space, cfg);
      core::SimilarityClient client(models[j], space, cfg);
      auto outcome = net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(10 + i * 4 + j);
            server.serve(ch, rng);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(20 + i * 4 + j);
            return client.evaluate(ch, rng);
          });
      const double plain =
          core::ordinary_similarity(models[i], models[j], space);
      if (std::abs(outcome.b - plain) > 1e-5 + 1e-3 * plain) {
        ++out_of_tolerance;
      }
      rows.push_back({"S" + std::to_string(i + 1) + " vs S" +
                          std::to_string(j + 1),
                      ks.average_normalized, 1e3 * outcome.b, 1e3 * plain});
    }
  }

  std::printf("%-10s | %12s | %14s | %14s\n", "Pair", "K-S avg",
              "10^3*T (priv)", "10^3*T (plain)");
  bench::rule(60);
  for (const Row& row : rows) {
    std::printf("%-10s | %12.3f | %14.3f | %14.3f\n", row.pair.c_str(),
                row.ks, row.t_scaled, row.plain_t_scaled);
  }

  // Rank agreement between the K-S column and the T column (Spearman rho).
  auto ranks = [](std::vector<double> v) {
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (std::size_t pos = 0; pos < idx.size(); ++pos) {
      r[idx[pos]] = static_cast<double>(pos);
    }
    return r;
  };
  std::vector<double> ks_col, t_col;
  for (const Row& row : rows) {
    ks_col.push_back(row.ks);
    t_col.push_back(row.t_scaled);
  }
  const auto rks = ranks(ks_col);
  const auto rt = ranks(t_col);
  double d2 = 0.0;
  for (std::size_t i = 0; i < rks.size(); ++i) {
    d2 += (rks[i] - rt[i]) * (rks[i] - rt[i]);
  }
  const double n = static_cast<double>(rks.size());
  const double rho = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
  std::printf("\nSpearman rank correlation K-S vs T: %.3f "
              "(1.0 = identical ordering; the paper's claim is 'same trend')\n",
              rho);
  if (out_of_tolerance != 0) {
    std::printf("FAIL: %d pair(s) with private T outside the tolerance\n",
                out_of_tolerance);
    return 1;
  }
  return 0;
}
