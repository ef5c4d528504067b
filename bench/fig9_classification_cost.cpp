/// Regenerates FIG. 9 — "Computational Cost Comparison of Classification":
/// total classification time vs dataset size for a1a..a9a (123 features),
/// four curves: {linear, nonlinear} x {original, privacy-preserving}.
///
/// Methodology vs the paper:
///  * original = plain SVM evaluation of the whole test set;
///  * private  = the full OMPE pipeline on the silent OT engine, one
///    bundle per side; the one-time seed agreement runs in an untimed
///    warm-up query, so the figure is the steady per-query cost of a
///    keep-alive connection (the cold seed agreement is in the session
///    section below and in ablation_ot_engines);
///  * private costs are measured per query on a probe subset and scaled to
///    the full test size (the per-query cost is constant within a dataset);
///  * the paper reports "about 4 times more than the original schemes" with
///    precomputed random polynomials; we print the measured ratio.
///
/// A second section measures multi-query session throughput on the
/// private engine against the loopback floor (tests/support/loopback_ot.hpp,
/// no privacy): a COLD session (fresh OT
/// engines, so the silent OT seed agreement is billed to it) and a WARM one
/// (the second session on the same OtBundle, as a keep-alive connection
/// runs it), with the process-wide exponentiation counters bracketing each
/// run. Results land in BENCH_classification.json (schema:
/// docs/PERFORMANCE.md).
///
/// A third section probes the silent engine's OFFLINE phase per pad slot:
/// the one-time seed agreement against the 16-byte correction rows, with
/// amortized and marginal full-exp and byte bills.
///
/// Flags: --quick trims the dataset sweep to a1a and shrinks the secure
/// batch (CI smoke).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ppds/common/stopwatch.hpp"
#include "ppds/common/thread_pool.hpp"
#include "ppds/core/classification.hpp"
#include "ppds/crypto/group.hpp"
#include "ppds/crypto/silent_ot.hpp"
#include "ppds/data/synthetic.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/smo.hpp"
#include "../tests/support/loopback_ot.hpp"

namespace {

using namespace ppds;

/// Measures private per-query milliseconds over `probe` queries on one
/// silent bundle per side, after an untimed warm-up query that runs the
/// seed agreement.
double private_ms_per_query(const svm::SvmModel& model,
                            const core::ClassificationProfile& profile,
                            const core::SchemeConfig& cfg,
                            const std::vector<math::Vec>& samples,
                            std::size_t probe) {
  core::ClassificationServer server(model, profile, cfg);
  core::ClassificationClient client(profile, cfg);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        core::OtBundle ot(cfg, rng);
        for (std::size_t i = 0; i <= probe; ++i) server.serve(ch, 1, rng, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        core::OtBundle ot(cfg, rng);
        client.classify(ch, samples.front(), rng, &ot);
        Stopwatch watch;
        for (std::size_t i = 0; i < probe; ++i) {
          client.classify(ch, samples[i % samples.size()], rng, &ot);
        }
        return watch.millis() / static_cast<double>(probe);
      });
  return outcome.b;
}

struct SecureRun {
  double wall_ms = 0.0;
  double queries_per_sec = 0.0;
  double exp_full_per_query = 0.0;
  double exp_fixed_base_per_query = 0.0;
};

bench::Json secure_run_json(const SecureRun& run) {
  auto j = bench::Json::object();
  j.set("wall_ms", run.wall_ms);
  j.set("queries_per_sec", run.queries_per_sec);
  j.set("exp_full_per_query", run.exp_full_per_query);
  j.set("exp_fixed_base_per_query", run.exp_fixed_base_per_query);
  return j;
}

/// Which engine and session a throughput run exercises.
enum class SecureMode {
  kLoopback,    ///< loopback OT: the algebraic floor, NO privacy
  kSilentCold,  ///< fresh silent engines: the seed agreement is billed
  kSilentWarm,  ///< second session on the same engines (keep-alive)
};

/// Session throughput: \p queries linear classifications in one session
/// (kModp1024), engine and warmth selected by \p mode.
SecureRun secure_throughput(std::size_t queries, SecureMode mode) {
  const std::size_t dim = 16;
  Rng setup_rng(42);
  math::Vec w(dim);
  for (auto& v : w) v = setup_rng.uniform_nonzero(-1.0, 1.0, 0.05);
  const svm::SvmModel model(svm::Kernel::linear(), {w}, {1.0},
                            setup_rng.uniform(-0.2, 0.2));
  const auto profile = core::ClassificationProfile::make(dim, model.kernel());

  core::SchemeConfig cfg = core::SchemeConfig::silent();
  cfg.group = crypto::GroupId::kModp1024;
  const auto make_bundle = [&](Rng& rng) {
    return mode == SecureMode::kLoopback ? test::loopback_bundle()
                                         : core::OtBundle(cfg, rng);
  };

  const core::ClassificationServer server(model, profile, cfg);
  const core::ClassificationClient client(profile, cfg);

  std::vector<std::vector<double>> samples(queries);
  for (auto& s : samples) {
    s.resize(dim);
    for (auto& v : s) v = setup_rng.uniform(-1.0, 1.0);
  }

  // The process-wide generator table is built once per group on first use;
  // steady-state throughput should not bill that one-time cost to this run.
  (void)crypto::shared_group(cfg.group).pow_g(mpz_class(3));

  const bool warm = mode == SecureMode::kSilentWarm;
  crypto::reset_exp_counters();
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        core::OtBundle ot = make_bundle(rng);
        if (warm) server.serve(ch, 1, rng, &ot);
        server.serve(ch, queries, rng, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        core::OtBundle ot = make_bundle(rng);
        if (warm) {
          (void)client.classify_batch(ch, {samples.front()}, rng, &ot);
          // The server's last exponentiation precedes its last send, so
          // nothing of the warm-up session lands after this reset.
          crypto::reset_exp_counters();
        }
        Stopwatch watch;
        (void)client.classify_batch(ch, samples, rng, &ot);
        return watch.millis();
      });
  SecureRun run;
  run.wall_ms = outcome.b;
  const crypto::ExpCounters exps = crypto::exp_counters();
  const double q = static_cast<double>(queries);
  run.queries_per_sec = 1000.0 * q / run.wall_ms;
  run.exp_full_per_query = static_cast<double>(exps.full) / q;
  run.exp_fixed_base_per_query = static_cast<double>(exps.fixed_base) / q;
  return run;
}

/// Raw cost of one offline reservation: both parties reserve \p slots
/// arity-2 pad slots on fresh engines; counters and payload bytes cover the
/// whole two-party run.
struct OfflineRaw {
  double wall_ms = 0.0;
  std::uint64_t exp_full = 0;
  std::uint64_t exp_fixed_base = 0;
  std::uint64_t bytes = 0;  ///< payload bytes, both directions
};

OfflineRaw offline_reserve(std::size_t slots) {
  const crypto::DhGroup& group = crypto::shared_group(crypto::GroupId::kModp1024);
  (void)group.pow_g(mpz_class(3));  // one-time generator table, off the bill
  crypto::reset_exp_counters();
  Stopwatch watch;
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(11);
        crypto::SilentPadSender sender(group, rng);
        sender.reserve(ch, 2, slots);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(12);
        crypto::SilentPadReceiver receiver(group, rng);
        receiver.reserve(ch, 2, slots);
        return 0;
      });
  OfflineRaw raw;
  raw.wall_ms = watch.millis();
  const crypto::ExpCounters exps = crypto::exp_counters();
  raw.exp_full = exps.full;
  raw.exp_fixed_base = exps.fixed_base;
  raw.bytes = outcome.a_sent.bytes + outcome.b_sent.bytes;
  return raw;
}

/// Per-slot offline costs derived from reservations at N and 2N: the
/// marginal slope isolates the steady-state per-slot bill, the intercept is
/// the one-time base-OT seed agreement — the engine's ONLY DH traffic.
struct OfflineCost {
  std::size_t slots = 0;
  double wall_ms = 0.0;
  double exp_full_per_slot = 0.0;           ///< amortized at N
  double exp_full_per_slot_marginal = 0.0;  ///< (cost(2N) - cost(N)) / N
  double bytes_per_slot = 0.0;              ///< amortized at N
  double bytes_per_slot_marginal = 0.0;
  double handshake_bytes = 0.0;             ///< intercept of the byte line
  double dh_bytes_per_slot = 0.0;  ///< group-element traffic per slot at N
};

OfflineCost offline_cost(std::size_t slots) {
  const OfflineRaw at_n = offline_reserve(slots);
  const OfflineRaw at_2n = offline_reserve(2 * slots);
  const double n = static_cast<double>(slots);
  OfflineCost cost;
  cost.slots = slots;
  cost.wall_ms = at_n.wall_ms;
  cost.exp_full_per_slot = static_cast<double>(at_n.exp_full) / n;
  cost.exp_full_per_slot_marginal =
      static_cast<double>(at_2n.exp_full - at_n.exp_full) / n;
  cost.bytes_per_slot = static_cast<double>(at_n.bytes) / n;
  cost.bytes_per_slot_marginal =
      static_cast<double>(at_2n.bytes - at_n.bytes) / n;
  cost.handshake_bytes =
      static_cast<double>(at_n.bytes) - cost.bytes_per_slot_marginal * n;
  // Group-element traffic is the handshake alone; corrections are
  // symmetric-crypto bytes (bytes_per_slot_marginal).
  cost.dh_bytes_per_slot = cost.handshake_bytes / n;
  return cost;
}

bench::Json offline_cost_json(const OfflineCost& cost) {
  auto j = bench::Json::object();
  j.set("slots", static_cast<std::uint64_t>(cost.slots));
  j.set("wall_ms", cost.wall_ms);
  j.set("exp_full_per_slot", cost.exp_full_per_slot);
  j.set("exp_full_per_slot_marginal", cost.exp_full_per_slot_marginal);
  j.set("bytes_per_slot", cost.bytes_per_slot);
  j.set("bytes_per_slot_marginal", cost.bytes_per_slot_marginal);
  j.set("handshake_bytes", cost.handshake_bytes);
  j.set("dh_bytes_per_slot", cost.dh_bytes_per_slot);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::has_flag(argc, argv, "--quick");
  auto report = bench::Json::object();
  report.set("figure", "fig9_classification_cost");
  report.set("quick", quick);
  // The masked-point evaluation loops split into one task per hardware
  // thread; recording the count keeps runs from different machines
  // comparable.
  report.set("worker_threads",
             static_cast<std::uint64_t>(ThreadPool::default_concurrency()));

  bench::banner("FIG. 9: Classification cost vs data size (a1a..a9a)");
  bench::note(
      "times in ms for the FULL test set; private figures scaled from a "
      "per-query probe on the silent OT engine (seed agreement excluded)");
  std::printf("%-5s %8s | %12s %12s %7s | %12s %12s %7s\n", "set", "queries",
              "lin-orig", "lin-priv", "ratio", "nonlin-orig", "nonlin-priv",
              "ratio");
  bench::rule(92);

  auto private_rows = bench::Json::array();
  const int last_set = quick ? 1 : 9;
  for (int i = 1; i <= last_set; ++i) {
    const auto spec = *data::spec_by_name("a" + std::to_string(i) + "a");
    auto [train, test] = data::generate(spec);
    const std::size_t n_test = test.size();

    // Linear pipelines.
    const auto lin_model =
        svm::train_svm(train, svm::Kernel::linear(), {spec.c_linear});
    Stopwatch watch;
    lin_model.predict_all(test.x);
    const double lin_orig_ms = watch.millis();

    const auto lin_profile =
        core::ClassificationProfile::make(spec.dim, lin_model.kernel());
    auto cfg = core::SchemeConfig::silent();
    const double lin_priv_per_query = private_ms_per_query(
        lin_model, lin_profile, cfg, test.x, std::min<std::size_t>(n_test, 200));
    const double lin_priv_ms = lin_priv_per_query * n_test;

    // Nonlinear pipelines (poly kernel, 325k monomial variates).
    const auto poly_kernel = svm::Kernel::paper_polynomial(spec.dim);
    const auto poly_model = svm::train_svm(train, poly_kernel, {spec.c_poly});
    watch.reset();
    poly_model.predict_all(test.x);
    const double poly_orig_ms = watch.millis();

    const auto poly_profile =
        core::ClassificationProfile::make(spec.dim, poly_kernel);
    auto poly_cfg = core::SchemeConfig::silent();
    poly_cfg.ompe.q = 1;  // m = 2 pairs; the 325k-feature vectors dominate
    const double poly_priv_per_query =
        private_ms_per_query(poly_model, poly_profile, poly_cfg, test.x, 6);
    const double poly_priv_ms = poly_priv_per_query * n_test;

    std::printf("a%da %9zu | %12.1f %12.1f %6.1fx | %12.1f %12.1f %6.1fx\n", i,
                n_test, lin_orig_ms, lin_priv_ms, lin_priv_ms / lin_orig_ms,
                poly_orig_ms, poly_priv_ms, poly_priv_ms / poly_orig_ms);

    auto row = bench::Json::object();
    row.set("set", "a" + std::to_string(i) + "a");
    row.set("queries", n_test);
    row.set("linear_original_ms", lin_orig_ms);
    row.set("linear_private_ms", lin_priv_ms);
    row.set("nonlinear_original_ms", poly_orig_ms);
    row.set("nonlinear_private_ms", poly_priv_ms);
    private_rows.push(std::move(row));
  }
  report.set("private", std::move(private_rows));

  // --- Session throughput: loopback vs silent, cold vs warm ---
  bench::banner("Session throughput (kModp1024, linear): loopback vs silent");
  bench::note(
      "loopback = simulated OT, no privacy; silent cold = fresh engines, "
      "seed agreement billed; silent warm = second session on the same "
      "engines (keep-alive)");

  const std::size_t queries = quick ? 4 : 24;
  const SecureRun loop = secure_throughput(queries, SecureMode::kLoopback);
  const SecureRun cold = secure_throughput(queries, SecureMode::kSilentCold);
  const SecureRun warm = secure_throughput(queries, SecureMode::kSilentWarm);

  std::printf("%-12s | %10s | %10s | %12s | %12s\n", "session", "wall ms",
              "q/s", "full exp/q", "fixed exp/q");
  bench::rule(68);
  const auto print_run = [](const char* name, const SecureRun& run) {
    std::printf("%-12s | %10.1f | %10.2f | %12.2f | %12.2f\n", name,
                run.wall_ms, run.queries_per_sec, run.exp_full_per_query,
                run.exp_fixed_base_per_query);
  };
  print_run("loopback", loop);
  print_run("silent cold", cold);
  print_run("silent warm", warm);
  std::printf("private overhead over loopback: cold %.2fx, warm %.2fx\n",
              cold.wall_ms / loop.wall_ms, warm.wall_ms / loop.wall_ms);

  // --- Offline phase per-slot cost of the silent engine ---
  bench::banner("Silent offline pad precompute: per-slot cost");
  bench::note(
      "both parties reserve N arity-2 slots on fresh engines; marginal = "
      "(cost(2N) - cost(N)) / N isolates the steady-state per-slot bill");
  const std::size_t probe_slots = quick ? 256 : 4096;
  const OfflineCost silent_cost = offline_cost(probe_slots);
  std::printf("%6s | %12s | %14s | %12s | %14s | %10s\n", "N",
              "full exp/slot", "marginal exp", "bytes/slot", "marginal bytes",
              "handshake");
  bench::rule(84);
  std::printf("%6zu | %12.3f | %14.3f | %12.1f | %14.2f | %10.0f\n",
              silent_cost.slots, silent_cost.exp_full_per_slot,
              silent_cost.exp_full_per_slot_marginal,
              silent_cost.bytes_per_slot, silent_cost.bytes_per_slot_marginal,
              silent_cost.handshake_bytes);

  auto secure = bench::Json::object();
  secure.set("group", "modp1024");
  secure.set("queries", queries);
  secure.set("loopback", secure_run_json(loop));
  secure.set("silent_cold", secure_run_json(cold));
  secure.set("silent_warm", secure_run_json(warm));
  secure.set("cold_over_loopback", cold.wall_ms / loop.wall_ms);
  secure.set("warm_over_loopback", warm.wall_ms / loop.wall_ms);

  auto offline = bench::Json::object();
  offline.set("arity", static_cast<std::uint64_t>(2));
  offline.set("silent", offline_cost_json(silent_cost));
  secure.set("offline_cost", std::move(offline));
  report.set("secure_throughput", std::move(secure));

  report.write_file("BENCH_classification.json");
  return 0;
}
