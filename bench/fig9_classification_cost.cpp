/// Regenerates FIG. 9 — "Computational Cost Comparison of Classification":
/// total classification time vs dataset size for a1a..a9a (123 features),
/// four curves: {linear, nonlinear} x {original, privacy-preserving}.
///
/// Methodology vs the paper:
///  * original = plain SVM evaluation of the whole test set;
///  * private  = the full OMPE pipeline (loopback OT so the algebraic
///    protocol cost is measured, not 1024-bit modexp; the secure engine is
///    measured separately in ablation_ot_engines);
///  * private costs are measured per query on a probe subset and scaled to
///    the full test size (the per-query cost is constant within a dataset);
///  * the paper reports "about 4 times more than the original schemes" with
///    precomputed random polynomials; we print the measured ratio.
///
/// A second section measures the SECURE engine's multi-query throughput:
/// the sequential baseline (per-query Naor-Pinkas OT) against the batched
/// engine (amortized offline OT + session pool), all three legs on the
/// shared fixed-base-tabled group, with the process-wide exponentiation
/// counters bracketing each run. Results
/// land in BENCH_classification.json (schema: docs/PERFORMANCE.md).
///
/// A third section probes the OFFLINE phase per pad slot: the PR-2 batched
/// DH precompute (one blinded group element per slot) against the silent
/// PPRF engine (one-time seed agreement + 16-byte correction rows), with
/// amortized and marginal full-exp and byte bills and the reduction ratios.
///
/// Flags: --quick trims the loopback sweep to a1a and shrinks the secure
/// batch (CI smoke); --reservoir attaches the background PadReservoir to
/// the silent offline probe; the JSON records both.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ppds/common/stopwatch.hpp"
#include "ppds/common/thread_pool.hpp"
#include "ppds/core/session_pool.hpp"
#include "ppds/crypto/group.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/crypto/reservoir.hpp"
#include "ppds/crypto/silent_ot.hpp"
#include "ppds/data/synthetic.hpp"
#include "ppds/net/party.hpp"
#include "ppds/svm/smo.hpp"

namespace {

using namespace ppds;

/// Measures private per-query milliseconds over `probe` queries.
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
        server.serve(ch, probe, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        Stopwatch watch;
        for (std::size_t i = 0; i < probe; ++i) {
          client.classify(ch, samples[i % samples.size()], rng);
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
  double multi_exp_batches_per_query = 0.0;
  double multi_exp_bases_per_query = 0.0;
};

bench::Json secure_run_json(const SecureRun& run) {
  auto j = bench::Json::object();
  j.set("wall_ms", run.wall_ms);
  j.set("queries_per_sec", run.queries_per_sec);
  j.set("exp_full_per_query", run.exp_full_per_query);
  j.set("exp_fixed_base_per_query", run.exp_fixed_base_per_query);
  j.set("multi_exp_batches_per_query", run.multi_exp_batches_per_query);
  j.set("multi_exp_bases_per_query", run.multi_exp_bases_per_query);
  return j;
}

/// Which secure offline engine a throughput run exercises.
enum class SecureMode {
  kSequential,  ///< per-query Naor-Pinkas OT
  kBatched,     ///< amortized DH precompute
  kSilent,      ///< PPRF seed agreement + 16-byte correction staging
};

/// Secure-engine throughput: \p queries linear classifications over real
/// Naor-Pinkas machinery (kModp1024), offline phase selected by \p mode.
SecureRun secure_throughput(std::size_t queries, SecureMode mode) {
  const bool batched = mode != SecureMode::kSequential;
  const std::size_t dim = 16;
  Rng setup_rng(42);
  math::Vec w(dim);
  for (auto& v : w) v = setup_rng.uniform_nonzero(-1.0, 1.0, 0.05);
  const svm::SvmModel model(svm::Kernel::linear(), {w}, {1.0},
                            setup_rng.uniform(-0.2, 0.2));
  const auto profile = core::ClassificationProfile::make(dim, model.kernel());

  core::SchemeConfig cfg;
  cfg.group = crypto::GroupId::kModp1024;
  cfg.ompe.q = 4;
  cfg.ompe.k = 2;
  cfg.ot_engine = batched ? core::OtEngine::kPrecomputed
                          : core::OtEngine::kNaorPinkas;
  cfg.silent_precompute = mode == SecureMode::kSilent;

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

  crypto::reset_exp_counters();
  Stopwatch watch;
  if (batched) {
    core::SessionPool pool(server, client, profile, cfg);
    // One session per batch: the whole offline OT phase collapses into a
    // single amortized round trip.
    (void)pool.classify_batch(samples, /*seed=*/7, /*chunk_size=*/queries);
  } else {
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(1);
          server.serve(ch, queries, rng);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(2);
          int acc = 0;
          for (const auto& s : samples) acc += client.classify(ch, s, rng);
          return acc;
        });
    (void)outcome;
  }
  SecureRun run;
  run.wall_ms = watch.millis();
  const crypto::ExpCounters exps = crypto::exp_counters();
  const double q = static_cast<double>(queries);
  run.queries_per_sec = 1000.0 * q / run.wall_ms;
  run.exp_full_per_query = static_cast<double>(exps.full) / q;
  run.exp_fixed_base_per_query = static_cast<double>(exps.fixed_base) / q;
  run.multi_exp_batches_per_query =
      static_cast<double>(exps.multi_exp_batches) / q;
  run.multi_exp_bases_per_query = static_cast<double>(exps.multi_exp_bases) / q;
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

OfflineRaw offline_reserve(std::size_t slots, bool silent,
                           bool with_reservoir) {
  const crypto::DhGroup& group = crypto::shared_group(crypto::GroupId::kModp1024);
  (void)group.pow_g(mpz_class(3));  // one-time generator table, off the bill
  std::optional<crypto::PadReservoir> reservoir;
  if (silent && with_reservoir) reservoir.emplace(1);
  crypto::reset_exp_counters();
  Stopwatch watch;
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(11);
        crypto::BatchedOtSender sender(group, rng);
        if (silent) {
          sender.enable_silent(crypto::kSilentLowWater);
          if (reservoir) sender.attach_reservoir(*reservoir);
        }
        sender.reserve(ch, slots);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(12);
        crypto::BatchedOtReceiver receiver(group, rng);
        if (silent) {
          receiver.enable_silent(crypto::kSilentLowWater);
          if (reservoir) receiver.attach_reservoir(*reservoir);
        }
        receiver.reserve(ch, slots);
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
/// the one-time handshake (batched: per-batch announce; silent: the whole
/// base-OT seed agreement — its ONLY DH traffic).
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

OfflineCost offline_cost(std::size_t slots, bool silent, bool with_reservoir) {
  const OfflineRaw at_n = offline_reserve(slots, silent, with_reservoir);
  const OfflineRaw at_2n = offline_reserve(2 * slots, silent, with_reservoir);
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
  // The batched engine's per-slot traffic is entirely group elements (one
  // blinded key each); the silent engine's group-element traffic is the
  // handshake alone — corrections are symmetric-crypto bytes, split out by
  // the caller via bytes_per_slot_marginal.
  cost.dh_bytes_per_slot = silent ? cost.handshake_bytes / n
                                  : cost.bytes_per_slot;
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
  // The masked-point evaluation loops parallelize across this many worker
  // threads (OmpeParams::eval_threads = 0 — one task per hardware thread),
  // so runs from different machines are comparable.
  report.set("eval_threads",
             static_cast<std::uint64_t>(ThreadPool::default_concurrency()));

  bench::banner("FIG. 9: Classification cost vs data size (a1a..a9a)");
  bench::note(
      "times in ms for the FULL test set; private figures scaled from a "
      "per-query probe; loopback OT isolates the protocol's algebraic cost");
  std::printf("%-5s %8s | %12s %12s %7s | %12s %12s %7s\n", "set", "queries",
              "lin-orig", "lin-priv", "ratio", "nonlin-orig", "nonlin-priv",
              "ratio");
  bench::rule(92);

  auto loopback_rows = bench::Json::array();
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
    auto cfg = core::SchemeConfig::fast_simulation();
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
    auto poly_cfg = core::SchemeConfig::fast_simulation();
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
    loopback_rows.push(std::move(row));
  }
  report.set("loopback", std::move(loopback_rows));

  // --- Secure-engine throughput: sequential vs batched vs silent ---
  bench::banner("Secure-engine multi-query throughput (kModp1024, linear)");
  bench::note(
      "sequential = per-query Naor-Pinkas OT; "
      "batched = amortized offline OT + session pool; "
      "silent = PPRF seed agreement + correction staging");

  const bool with_reservoir = bench::has_flag(argc, argv, "--reservoir");
  const std::size_t queries = quick ? 4 : 24;
  const SecureRun seq = secure_throughput(queries, SecureMode::kSequential);
  const SecureRun bat = secure_throughput(queries, SecureMode::kBatched);
  const SecureRun sil = secure_throughput(queries, SecureMode::kSilent);
  const double speedup = seq.wall_ms / bat.wall_ms;
  const double silent_speedup = seq.wall_ms / sil.wall_ms;

  std::printf("%-12s | %10s | %10s | %12s | %12s | %12s\n", "engine",
              "wall ms", "q/s", "full exp/q", "fixed exp/q", "multiexp/q");
  bench::rule(84);
  std::printf("%-12s | %10.1f | %10.2f | %12.1f | %12.1f | %12.1f\n",
              "sequential", seq.wall_ms, seq.queries_per_sec,
              seq.exp_full_per_query, seq.exp_fixed_base_per_query,
              seq.multi_exp_batches_per_query);
  std::printf("%-12s | %10.1f | %10.2f | %12.1f | %12.1f | %12.1f\n",
              "batched", bat.wall_ms, bat.queries_per_sec,
              bat.exp_full_per_query, bat.exp_fixed_base_per_query,
              bat.multi_exp_batches_per_query);
  std::printf("%-12s | %10.1f | %10.2f | %12.1f | %12.1f | %12.1f\n",
              "silent", sil.wall_ms, sil.queries_per_sec,
              sil.exp_full_per_query, sil.exp_fixed_base_per_query,
              sil.multi_exp_batches_per_query);
  std::printf("speedup: batched %.2fx, silent %.2fx (full exps saved per "
              "query vs sequential: %.1f / %.1f)\n",
              speedup, silent_speedup,
              seq.exp_full_per_query - bat.exp_full_per_query,
              seq.exp_full_per_query - sil.exp_full_per_query);

  // --- Offline phase per-slot cost: PR-2 batched DH vs silent PPRF ---
  bench::banner("Offline pad precompute: per-slot cost, batched vs silent");
  bench::note(
      "both parties reserve N arity-2 slots on fresh engines; marginal = "
      "(cost(2N) - cost(N)) / N isolates the steady-state per-slot bill" +
      std::string(with_reservoir ? "; silent leg runs with the background "
                                   "reservoir attached"
                                 : ""));
  const std::size_t probe_slots = quick ? 256 : 4096;
  const OfflineCost dh_cost =
      offline_cost(probe_slots, /*silent=*/false, /*with_reservoir=*/false);
  const OfflineCost silent_cost =
      offline_cost(probe_slots, /*silent=*/true, with_reservoir);
  // Full group exps per slot: the silent engine's marginal cost is exactly
  // zero (corrections are PRG+hash work), so the honest ratio is the
  // amortized one — the whole seed agreement billed against N slots.
  const double exp_reduction =
      dh_cost.exp_full_per_slot / silent_cost.exp_full_per_slot;
  // Offline group-element traffic per slot (the O(N) -> O(log N) claim):
  // batched pays one 128-byte blinded key per slot forever; silent pays DH
  // bytes only in the one-time seed agreement. The 16-byte correction
  // stream is reported alongside as bytes_per_slot_marginal.
  const double bandwidth_reduction =
      dh_cost.dh_bytes_per_slot / silent_cost.dh_bytes_per_slot;
  const double total_bandwidth_reduction =
      dh_cost.bytes_per_slot_marginal / silent_cost.bytes_per_slot_marginal;

  std::printf("%-8s | %6s | %12s | %14s | %12s | %14s\n", "engine", "N",
              "full exp/slot", "marginal exp", "bytes/slot", "marginal bytes");
  bench::rule(84);
  std::printf("%-8s | %6zu | %12.3f | %14.3f | %12.1f | %14.2f\n", "batched",
              dh_cost.slots, dh_cost.exp_full_per_slot,
              dh_cost.exp_full_per_slot_marginal, dh_cost.bytes_per_slot,
              dh_cost.bytes_per_slot_marginal);
  std::printf("%-8s | %6zu | %12.3f | %14.3f | %12.1f | %14.2f\n", "silent",
              silent_cost.slots, silent_cost.exp_full_per_slot,
              silent_cost.exp_full_per_slot_marginal,
              silent_cost.bytes_per_slot, silent_cost.bytes_per_slot_marginal);
  std::printf("reductions: %.1fx full exps/slot, %.1fx offline group-element "
              "bytes/slot (%.1fx total offline bytes/slot marginal)\n",
              exp_reduction, bandwidth_reduction, total_bandwidth_reduction);

  auto secure = bench::Json::object();
  secure.set("group", "modp1024");
  secure.set("queries", queries);
  secure.set("sequential", secure_run_json(seq));
  secure.set("sequential_basis",
             "per-query Naor-Pinkas OT on the shared fixed-base-tabled group");
  secure.set("batched", secure_run_json(bat));
  secure.set("silent", secure_run_json(sil));
  secure.set("speedup", speedup);
  secure.set("silent_speedup", silent_speedup);
  secure.set("exp_full_saved_per_query",
             seq.exp_full_per_query - bat.exp_full_per_query);

  auto offline = bench::Json::object();
  offline.set("arity", static_cast<std::uint64_t>(2));
  offline.set("reservoir", with_reservoir);
  offline.set("batched", offline_cost_json(dh_cost));
  offline.set("silent", offline_cost_json(silent_cost));
  offline.set("exp_reduction", exp_reduction);
  offline.set("bandwidth_reduction", bandwidth_reduction);
  offline.set("bandwidth_basis",
              "offline group-element traffic per slot; the silent 16B/slot "
              "correction stream is bytes_per_slot_marginal");
  offline.set("total_bandwidth_reduction_marginal", total_bandwidth_reduction);
  secure.set("offline_cost", std::move(offline));
  report.set("secure_throughput", std::move(secure));

  report.write_file("BENCH_classification.json");
  return 0;
}
