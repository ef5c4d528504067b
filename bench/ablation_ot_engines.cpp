/// ABLATION — OT engine choice. The paper treats the oblivious transfer as
/// a black box; this bench quantifies what the choice costs for one private
/// linear classification session (m-out-of-M OT of 8-byte values):
///   * loopback — trusted simulation lower bound (NO privacy; the test
///                engine of tests/support/loopback_ot.hpp),
///   * silent   — the private engine: a silent OT extension whose seed
///                agreement is one batched Naor-Pinkas round trip,
/// each on a COLD session (fresh OT engines: the seed agreement is billed to
/// the session) and a WARM one (a keep-alive connection's second session:
/// the engines already ran their seed agreement). It reports ms and wire
/// bytes per query for each.

#include <cstdio>

#include "bench_util.hpp"
#include "ppds/common/stopwatch.hpp"
#include "ppds/core/classification.hpp"
#include "ppds/net/party.hpp"
#include "../tests/support/loopback_ot.hpp"

namespace {

using namespace ppds;

struct Result {
  double ms_per_query;
  std::uint64_t wire_bytes;
};

/// One session of \p queries classifications on silent bundles, or on
/// loopback ones when \p loopback is set. \p warm: both parties first run a
/// one-query session on the same OtBundle, and only the second session is
/// timed and counted.
Result run(const core::SchemeConfig& cfg, std::size_t queries, bool warm,
           bool loopback = false) {
  const auto make_bundle = [&](Rng& rng) {
    return loopback ? test::loopback_bundle() : core::OtBundle(cfg, rng);
  };
  const svm::SvmModel model(svm::Kernel::linear(),
                            {{0.3, -0.8, 0.5, 0.1, -0.2, 0.7, 0.4, -0.6}},
                            {1.0}, 0.05);
  const auto profile = core::ClassificationProfile::make(8, model.kernel());
  const core::ClassificationServer server(model, profile, cfg);
  const core::ClassificationClient client(profile, cfg);
  const std::vector<std::vector<double>> samples(
      queries, {0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7, 0.8});
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        core::OtBundle ot = make_bundle(rng);
        if (warm) {
          server.serve(ch, 1, rng, &ot);
          ch.reset_stats();
        }
        server.serve(ch, queries, rng, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        core::OtBundle ot = make_bundle(rng);
        if (warm) {
          (void)client.classify_batch(ch, {samples.front()}, rng, &ot);
          ch.reset_stats();
        }
        Stopwatch watch;
        (void)client.classify_batch(ch, samples, rng, &ot);
        return watch.millis() / static_cast<double>(queries);
      });
  return {outcome.b,
          (outcome.a_sent.bytes + outcome.b_sent.bytes) / queries};
}

void print_row(const char* engine, const Result& r) {
  std::printf("%-26s | %12.3f | %12llu\n", engine, r.ms_per_query,
              static_cast<unsigned long long>(r.wire_bytes));
}

}  // namespace

int main() {
  bench::banner("ABLATION: OT engine cost for one private classification");
  bench::note("q=4, k=2 (silent profile); 8-feature linear model");
  std::printf("%-26s | %12s | %12s\n", "engine", "ms/query", "bytes/query");
  bench::rule(56);

  print_row("loopback (simulated)",
            run(core::SchemeConfig::silent(), 100, false, true));
  for (const auto group : {crypto::GroupId::kModp1024,
                           crypto::GroupId::kModp1536}) {
    core::SchemeConfig cfg = core::SchemeConfig::silent();
    cfg.group = group;
    const char* name = group == crypto::GroupId::kModp1024 ? "1024" : "1536";
    for (const std::size_t queries : {1, 16}) {
      char label[64];
      std::snprintf(label, sizeof label, "silent %s cold, %zu q", name,
                    queries);
      print_row(label, run(cfg, queries, false));
      std::snprintf(label, sizeof label, "silent %s warm, %zu q", name,
                    queries);
      print_row(label, run(cfg, queries, true));
    }
  }
  std::printf(
      "\nA cold session pays the 128-column seed agreement (one batched\n"
      "Naor-Pinkas round trip); a warm session on the same connection pays\n"
      "only 16-byte correction rows and hash/XOR transfers, which is why the\n"
      "daemon keeps one OtBundle per connection.\n");
  return 0;
}
