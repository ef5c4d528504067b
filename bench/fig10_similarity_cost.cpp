/// Regenerates FIG. 10 — "Computational Cost Comparison of Similarity
/// Evaluation": one evaluation's cost as the hyperplane dimension grows from
/// 2 to 8, ordinary (plaintext geometry) vs privacy-preserving (three OMPE
/// rounds). The paper's shape: the private curve grows much faster with the
/// dimension, because each extra dimension adds random cover polynomials
/// rather than one multiplication.
///
/// Emits BENCH_similarity.json (schema: docs/PERFORMANCE.md). --quick trims
/// dimensions and repetitions for CI smoke runs.

#include <cstdio>

#include "bench_util.hpp"
#include "ppds/common/stopwatch.hpp"
#include "ppds/common/thread_pool.hpp"
#include "ppds/core/similarity.hpp"
#include "ppds/net/party.hpp"

int main(int argc, char** argv) {
  using namespace ppds;
  const bool quick = bench::has_flag(argc, argv, "--quick");
  bench::banner("FIG. 10: Similarity-evaluation cost vs hyperplane dimension");
  bench::note("mean over repetitions; loopback OT (see ablation_ot_engines)");
  std::printf("%-4s | %14s | %14s | %8s | %12s\n", "dim", "ordinary (us)",
              "private (us)", "ratio", "wire bytes");
  bench::rule(64);

  auto report = bench::Json::object();
  report.set("figure", "fig10_similarity_cost");
  report.set("quick", quick);
  report.set("hardware_threads",
             static_cast<std::uint64_t>(ThreadPool::default_concurrency()));
  auto rows = bench::Json::array();

  const core::DataSpace space;
  const auto cfg = core::SchemeConfig::fast_simulation();
  const std::size_t max_dim = quick ? 4 : 8;
  const int ord_reps = quick ? 2000 : 20000;
  const int priv_reps = quick ? 20 : 200;
  for (std::size_t dim = 2; dim <= max_dim; ++dim) {
    Rng rng(100 + dim);
    auto random_model = [&]() {
      math::Vec w(dim);
      for (auto& v : w) v = rng.uniform_nonzero(-1.0, 1.0, 0.05);
      return svm::SvmModel(svm::Kernel::linear(), {w}, {1.0},
                           rng.uniform(-0.2, 0.2));
    };
    const auto a = random_model();
    const auto b = random_model();

    // Ordinary: per-comparison cost with the one-time bounded-plane
    // geometry precomputed, mirroring the private scheme (whose centroids
    // are computed once at construction). Averaged over many repetitions.
    const auto pa = core::PreparedModel::prepare(a, space);
    const auto pb = core::PreparedModel::prepare(b, space);
    Stopwatch watch;
    double sink = 0.0;
    for (int r = 0; r < ord_reps; ++r) {
      sink += core::ordinary_similarity_prepared(pa, pb, space);
    }
    const double ordinary_us = watch.micros() / ord_reps;

    // Private: average over fewer repetitions.
    core::SimilarityServer server(a, space, cfg);
    core::SimilarityClient client(b, space, cfg);
    std::uint64_t wire_bytes = 0;
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng r(1);
          for (int rep = 0; rep < priv_reps; ++rep) server.serve(ch, r);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng r(2);
          Stopwatch priv_watch;
          double acc = 0.0;
          for (int rep = 0; rep < priv_reps; ++rep) {
            acc += client.evaluate(ch, r);
          }
          (void)acc;
          return priv_watch.micros() / priv_reps;
        });
    wire_bytes = (outcome.a_sent.bytes + outcome.b_sent.bytes) /
                 static_cast<std::uint64_t>(priv_reps);
    std::printf("%-4zu | %14.2f | %14.2f | %7.1fx | %12llu\n", dim,
                ordinary_us, outcome.b, outcome.b / ordinary_us,
                static_cast<unsigned long long>(wire_bytes));
    (void)sink;

    auto row = bench::Json::object();
    row.set("dim", dim);
    row.set("ordinary_us", ordinary_us);
    row.set("private_us", outcome.b);
    row.set("wire_bytes", wire_bytes);
    rows.push(std::move(row));
  }
  report.set("rows", std::move(rows));
  report.write_file("BENCH_similarity.json");
  return 0;
}
