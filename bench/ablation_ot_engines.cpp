/// ABLATION — OT engine choice. The paper treats the oblivious transfer as
/// a black box; this bench quantifies what the choice costs for one private
/// linear classification query (m-out-of-M OT of 8-byte values):
///   * loopback            — trusted simulation lower bound,
///   * Naor-Pinkas 1024    — real public-key OT, benchmark-friendly group,
///   * Naor-Pinkas 1536    — the default group,
///   * precomputed         — Naor-Pinkas moved offline, online XOR only.
/// It also reports wire bytes per query for each engine.

#include <cstdio>

#include "bench_util.hpp"
#include "ppds/common/stopwatch.hpp"
#include "ppds/core/classification.hpp"
#include "ppds/net/party.hpp"

namespace {

using namespace ppds;

struct Result {
  double ms_per_query;
  std::uint64_t wire_bytes;
};

Result run(const core::SchemeConfig& cfg, std::size_t queries) {
  const svm::SvmModel model(svm::Kernel::linear(),
                            {{0.3, -0.8, 0.5, 0.1, -0.2, 0.7, 0.4, -0.6}},
                            {1.0}, 0.05);
  const auto profile = core::ClassificationProfile::make(8, model.kernel());
  core::ClassificationServer server(model, profile, cfg);
  core::ClassificationClient client(profile, cfg);
  const std::vector<std::vector<double>> samples(
      queries, {0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7, 0.8});
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        server.serve(ch, queries, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        Stopwatch watch;
        client.classify_batch(ch, samples, rng);
        return watch.millis() / static_cast<double>(queries);
      });
  return {outcome.b,
          (outcome.a_sent.bytes + outcome.b_sent.bytes) / queries};
}

/// Precomputed engine, reporting offline and online separately.
void run_precomputed(std::size_t queries) {
  auto cfg = core::SchemeConfig::fast_simulation();
  cfg.ot_engine = core::OtEngine::kPrecomputed;
  cfg.group = crypto::GroupId::kModp1024;
  const svm::SvmModel model(svm::Kernel::linear(),
                            {{0.3, -0.8, 0.5, 0.1, -0.2, 0.7, 0.4, -0.6}},
                            {1.0}, 0.05);
  const auto profile = core::ClassificationProfile::make(8, model.kernel());
  core::ClassificationServer server(model, profile, cfg);
  core::ClassificationClient client(profile, cfg);
  const std::vector<std::vector<double>> samples(
      queries, {0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7, 0.8});
  // Split offline/online by driving the OMPE layer directly (mirrors what
  // ClassificationClient::query_values_batch does internally).
  struct Split {
    double offline_ms;
    double online_ms_per_query;
  };
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        server.serve(ch, queries, rng);
        return Split{};
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        Split split;
        Stopwatch offline;
        core::OtBundle ot(cfg, rng);
        ot.prepare_receiver(ch, core::ot_demand_per_query(cfg.ompe), queries);
        split.offline_ms = offline.millis();
        Stopwatch online;
        for (const auto& sample : samples) {
          ompe::run_receiver(ch, profile.transform(sample), cfg.ompe,
                             ot.receiver(), rng);
        }
        split.online_ms_per_query =
            online.millis() / static_cast<double>(queries);
        return split;
      });
  std::printf("%-22s | %12.3f | %12llu  (+ %.0f ms offline pool for %zu "
              "queries, amortizable)\n",
              "precomputed (online)", outcome.b.online_ms_per_query,
              static_cast<unsigned long long>(
                  (outcome.a_sent.bytes + outcome.b_sent.bytes) / queries),
              outcome.b.offline_ms, queries);
}

}  // namespace

int main() {
  bench::banner("ABLATION: OT engine cost for one private classification");
  bench::note("q=4, k=2 (fast profile); 8-feature linear model");
  std::printf("%-22s | %12s | %12s\n", "engine", "ms/query", "bytes/query");
  bench::rule(52);

  {
    auto cfg = core::SchemeConfig::fast_simulation();
    const Result r = run(cfg, 100);
    std::printf("%-22s | %12.3f | %12llu\n", "loopback (simulated)",
                r.ms_per_query, static_cast<unsigned long long>(r.wire_bytes));
  }
  {
    auto cfg = core::SchemeConfig::fast_simulation();
    cfg.ot_engine = core::OtEngine::kNaorPinkas;
    cfg.group = crypto::GroupId::kModp1024;
    const Result r = run(cfg, 4);
    std::printf("%-22s | %12.3f | %12llu\n", "naor-pinkas MODP-1024",
                r.ms_per_query, static_cast<unsigned long long>(r.wire_bytes));
  }
  {
    auto cfg = core::SchemeConfig::fast_simulation();
    cfg.ot_engine = core::OtEngine::kNaorPinkas;
    cfg.group = crypto::GroupId::kModp1536;
    const Result r = run(cfg, 2);
    std::printf("%-22s | %12.3f | %12llu\n", "naor-pinkas MODP-1536",
                r.ms_per_query, static_cast<unsigned long long>(r.wire_bytes));
  }
  run_precomputed(24);
  std::printf(
      "\nThe paper's remark that precomputing randomness reduces online cost\n"
      "holds for OT too: after the offline pool is exchanged, the online\n"
      "phase contains no public-key operations (see also micro_crypto's\n"
      "BM_OtPrecomputedOnline: ~15 us per transfer vs ~2 ms full protocol).\n");
  return 0;
}
