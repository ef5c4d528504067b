/// Micro-benchmarks of the OMPE protocol (always degree 1 over a feature
/// vector): scaling in the input arity, the security parameter q, the cover
/// blow-up k, and the two numeric backends (google-benchmark section), plus
/// a hot-path engine sweep that brackets
/// each configuration with the ompe::stage_counters() and emits
/// BENCH_ompe.json (schema: docs/PERFORMANCE.md). Loopback OT throughout —
/// the public-key OT cost is characterized in micro_crypto and
/// ablation_ot_engines.
///
/// Flags: --quick runs only a trimmed sweep and skips the google-benchmark
/// section (CI smoke); the JSON records which mode produced it.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "ppds/common/stopwatch.hpp"
#include "ppds/common/thread_pool.hpp"
#include "ppds/field/m61xn.hpp"
#include "ppds/math/vec.hpp"
#include "ppds/net/party.hpp"
#include "ppds/ompe/ompe.hpp"

namespace {

using namespace ppds;

/// A random secret w . z + b.
struct Affine {
  math::Vec w;
  double b = 0.0;
};

double one_round(const Affine& secret, const std::vector<double>& alpha,
                 const ompe::OmpeParams& params, std::uint64_t seed) {
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        crypto::LoopbackSender ot;
        ompe::run_sender(ch, secret.w, secret.b, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed + 1);
        crypto::LoopbackReceiver ot;
        return ompe::run_receiver(ch, alpha, params, ot, rng);
      });
  return outcome.b;
}

Affine random_affine(std::size_t arity, Rng& rng) {
  Affine out;
  out.w.resize(arity);
  for (auto& v : out.w) v = rng.uniform(-1, 1);
  out.b = rng.uniform(-1, 1);
  return out;
}

void BM_OmpeArity(benchmark::State& state) {
  Rng rng(1);
  const std::size_t arity = static_cast<std::size_t>(state.range(0));
  const auto secret = random_affine(arity, rng);
  std::vector<double> alpha(arity);
  for (auto& v : alpha) v = rng.uniform(-1, 1);
  ompe::OmpeParams params;
  std::uint64_t seed = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_round(secret, alpha, params, seed++));
  }
}
BENCHMARK(BM_OmpeArity)->Arg(2)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_OmpeSecurityQ(benchmark::State& state) {
  Rng rng(2);
  const auto secret = random_affine(16, rng);
  std::vector<double> alpha(16);
  for (auto& v : alpha) v = rng.uniform(-1, 1);
  ompe::OmpeParams params;
  params.q = static_cast<unsigned>(state.range(0));
  std::uint64_t seed = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_round(secret, alpha, params, seed++));
  }
}
BENCHMARK(BM_OmpeSecurityQ)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_OmpeCoverK(benchmark::State& state) {
  Rng rng(3);
  const auto secret = random_affine(16, rng);
  std::vector<double> alpha(16);
  for (auto& v : alpha) v = rng.uniform(-1, 1);
  ompe::OmpeParams params;
  params.k = static_cast<unsigned>(state.range(0));
  std::uint64_t seed = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_round(secret, alpha, params, seed++));
  }
}
BENCHMARK(BM_OmpeCoverK)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_OmpeBackend(benchmark::State& state) {
  Rng rng(4);
  const auto secret = random_affine(16, rng);
  std::vector<double> alpha(16);
  for (auto& v : alpha) v = rng.uniform(-1, 1);
  ompe::OmpeParams params;
  params.backend = state.range(0) == 0 ? ompe::Backend::kReal
                                       : ompe::Backend::kField;
  std::uint64_t seed = 3000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_round(secret, alpha, params, seed++));
  }
  state.SetLabel(state.range(0) == 0 ? "real(long double)"
                                     : "field(Mersenne-61)");
}
BENCHMARK(BM_OmpeBackend)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Hot-path engine sweep -> BENCH_ompe.json

struct SweepResult {
  double round_ms = 0.0;
  ompe::StageCounters stages;
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// One timed round over a secret linear in `arity` features (the nonlinear
/// serving pattern) averaged over \p reps, stage counters bracketing the
/// runs.
SweepResult linear_round(std::size_t arity, unsigned eval_threads,
                         std::size_t reps) {
  Rng rng(12 + arity);
  std::vector<double> w(arity);
  for (auto& v : w) v = rng.uniform(-1.0, 1.0);
  const double b = rng.uniform(-1.0, 1.0);
  std::vector<double> alpha(arity);
  for (auto& v : alpha) v = rng.uniform(-1.0, 1.0);

  ompe::OmpeParams params;
  params.q = 1;  // the nonlinear fig9 configuration: wide vectors dominate
  params.eval_threads = eval_threads;

  ompe::reset_stage_counters();
  Stopwatch watch;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng srng(100 + rep);
          crypto::LoopbackSender ot;
          ompe::run_sender(ch, w, b, params, ot, srng);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rrng(200 + rep);
          crypto::LoopbackReceiver ot;
          return ompe::run_receiver(ch, alpha, params, ot, rrng);
        });
    benchmark::DoNotOptimize(outcome.b);
  }
  SweepResult result;
  result.round_ms = watch.millis() / static_cast<double>(reps);
  result.stages = ompe::stage_counters();
  return result;
}

/// One timed FIELD-backend linear round with the SIMD lane knob under test;
/// q is the secure default so the cover/mask Horner chains have real depth.
/// Reports best-of-reps per stage (not the mean): the scalar-vs-SIMD ratio
/// is a property of the code, and minima shrug off scheduler noise on
/// shared runners that averages fold straight into the speedup column.
SweepResult field_round(std::size_t arity, bool use_simd,
                        std::size_t reps) {
  Rng rng(17 + arity);
  std::vector<double> w(arity);
  for (auto& v : w) v = rng.uniform(-1.0, 1.0);
  const double b = rng.uniform(-1.0, 1.0);
  std::vector<double> alpha(arity);
  for (auto& v : alpha) v = rng.uniform(-1.0, 1.0);

  ompe::OmpeParams params;
  params.backend = ompe::Backend::kField;
  params.use_simd_field = use_simd;
  params.eval_threads = 1;  // isolate the lane speedup from threading

  SweepResult result;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    ompe::reset_stage_counters();
    Stopwatch watch;
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng srng(500 + rep);
          crypto::LoopbackSender ot;
          ompe::run_sender(ch, w, b, params, ot, srng);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rrng(600 + rep);
          crypto::LoopbackReceiver ot;
          return ompe::run_receiver(ch, alpha, params, ot, rrng);
        });
    benchmark::DoNotOptimize(outcome.b);
    const double round = watch.millis();
    const ompe::StageCounters stages = ompe::stage_counters();
    if (rep == 0) {
      result.round_ms = round;
      result.stages = stages;
      continue;
    }
    result.round_ms = std::min(result.round_ms, round);
    result.stages.mask_eval_ns =
        std::min(result.stages.mask_eval_ns, stages.mask_eval_ns);
    result.stages.cover_eval_ns =
        std::min(result.stages.cover_eval_ns, stages.cover_eval_ns);
    result.stages.ot_ns = std::min(result.stages.ot_ns, stages.ot_ns);
    result.stages.interp_ns =
        std::min(result.stages.interp_ns, stages.interp_ns);
  }
  return result;
}

void run_engine_sweep(bool quick, bench::Json& report) {
  const std::size_t reps = quick ? 1 : 3;

  bench::banner("OMPE engine sweep: wide feature vectors (nonlinear pattern)");
  bench::note("loopback OT; q=1; stage times from ompe::stage_counters()");
  std::printf("%8s %8s | %9s | %9s %9s %7s %7s\n", "arity", "threads",
              "round ms", "mask ms", "cover ms", "ot ms", "intp ms");
  bench::rule(74);

  auto linear_rows = bench::Json::array();
  const std::vector<std::size_t> arities =
      quick ? std::vector<std::size_t>{1024, 16384}
            : std::vector<std::size_t>{1024, 16384, 131072, 325499};
  const unsigned hw =
      static_cast<unsigned>(ThreadPool::default_concurrency());
  for (std::size_t arity : arities) {
    for (unsigned threads : {1u, 0u}) {
      const SweepResult r = linear_round(arity, threads, reps);
      const unsigned effective = threads == 0 ? hw : threads;
      const double div = static_cast<double>(reps);
      const double mask_ms = ms(r.stages.mask_eval_ns) / div;
      const double cover_ms = ms(r.stages.cover_eval_ns) / div;
      const double ot_ms = ms(r.stages.ot_ns) / div;
      const double interp_ms = ms(r.stages.interp_ns) / div;
      std::printf("%8zu %8u | %9.2f | %9.2f %9.2f %7.2f %7.2f\n", arity,
                  effective, r.round_ms, mask_ms, cover_ms, ot_ms, interp_ms);
      auto row = bench::Json::object();
      row.set("arity", static_cast<std::uint64_t>(arity));
      row.set("eval_threads", static_cast<std::uint64_t>(effective));
      row.set("round_ms", r.round_ms);
      row.set("mask_eval_ms", mask_ms);
      row.set("cover_eval_ms", cover_ms);
      row.set("ot_ms", ot_ms);
      row.set("interp_ms", interp_ms);
      linear_rows.push(std::move(row));
    }
  }
  report.set("linear_sweep", std::move(linear_rows));

  bench::banner("OMPE field backend: scalar vs SIMD (M61x8) lane sweep");
  bench::note(field::simd_caps().active);
  std::printf("%8s | %10s %10s %7s | %10s %10s %7s\n", "arity", "mask sc",
              "mask simd", "speedup", "cover sc", "cover simd", "speedup");
  bench::rule(74);

  auto simd_rows = bench::Json::array();
  const std::vector<std::size_t> simd_arities =
      quick ? std::vector<std::size_t>{1024}
            : std::vector<std::size_t>{256, 1024, 16384};
  // field_round reports best-of-reps, so more reps tighten the ratio
  // instead of widening the noise window; rounds at these arities are
  // cheap, so the extra reps cost little even in quick mode.
  const std::size_t simd_reps = quick ? 5 : 11;
  for (std::size_t arity : simd_arities) {
    const SweepResult scalar = field_round(arity, /*use_simd=*/false, simd_reps);
    const SweepResult simd = field_round(arity, /*use_simd=*/true, simd_reps);
    const double mask_sc = ms(scalar.stages.mask_eval_ns);
    const double mask_simd = ms(simd.stages.mask_eval_ns);
    const double cover_sc = ms(scalar.stages.cover_eval_ns);
    const double cover_simd = ms(simd.stages.cover_eval_ns);
    std::printf("%8zu | %10.3f %10.3f %6.2fx | %10.3f %10.3f %6.2fx\n", arity,
                mask_sc, mask_simd, mask_sc / mask_simd, cover_sc, cover_simd,
                cover_sc / cover_simd);
    auto row = bench::Json::object();
    row.set("arity", static_cast<std::uint64_t>(arity));
    row.set("simd_engine", field::simd_caps().active);
    row.set("scalar_mask_ms", mask_sc);
    row.set("simd_mask_ms", mask_simd);
    row.set("mask_speedup", mask_sc / mask_simd);
    row.set("scalar_cover_ms", cover_sc);
    row.set("simd_cover_ms", cover_simd);
    row.set("cover_speedup", cover_sc / cover_simd);
    simd_rows.push(std::move(row));
  }
  report.set("field_simd_sweep", std::move(simd_rows));
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::has_flag(argc, argv, "--quick");

  auto report = bench::Json::object();
  report.set("figure", "micro_ompe");
  report.set("quick", quick);
  report.set("hardware_threads",
             static_cast<std::uint64_t>(ThreadPool::default_concurrency()));
  run_engine_sweep(quick, report);
  report.write_file("BENCH_ompe.json");

  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
