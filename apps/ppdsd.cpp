/// ppdsd — the privacy-preserving classification / similarity daemon.
///
/// Listens on a TCP or unix-domain socket and serves protocol sessions to
/// any number of keep-alive client connections (see ppds-cli). Both ends
/// must be started with the SAME --scenario and --seed so the handshake
/// digests agree (docs/PROTOCOL.md §8.3).
///
///   ppdsd --listen tcp:127.0.0.1:7441 --scenario diabetes:linear:secure
///   ppdsd --listen unix:/tmp/ppds.sock --workers 8
///
/// SIGTERM / SIGINT drain gracefully: the listener closes, in-flight
/// sessions finish under their deadlines, and the exit banner reports the
/// session counters plus the OT abort audit (aborts == wiped means every
/// failed session provably zeroed its pad pools).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "ppds/crypto/ot.hpp"
#include "ppds/server/daemon.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--listen tcp:<host>:<port>|unix:<path>]\n"
      "          [--scenario <dataset>[:linear|:poly][:silent|:secure|"
      ":fast]]\n"
      "          [--seed N] [--workers N] [--idle-timeout-ms N]\n"
      "          [--recv-timeout-ms N] [--max-queries N]\n"
      "          [--max-connections N] [--accept-rate N] [--accept-burst N]\n"
      "          [--max-ready N] [--drain-grace-ms N]\n"
      "--scenario defaults to diabetes:linear:silent. silent and secure run\n"
      "the private OT engine (q=4,k=2 and q=8,k=3); fast is loopback OT\n"
      "with NO privacy, for benches only.\n"
      "--max-connections / --accept-rate bound admission: connections past\n"
      "the live cap or the accept-per-second token bucket are answered with\n"
      "a structured busy frame (reason + retry-after) instead of an RST,\n"
      "and a kHealth probe (ppds-cli health) reports the shed counters.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppds;

  std::string listen = "tcp:127.0.0.1:7441";
  std::string scenario_text = "diabetes:linear:silent";
  std::uint64_t seed = 1;
  server::DaemonOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ppdsd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--listen") {
      listen = next();
    } else if (arg == "--scenario") {
      scenario_text = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--workers") {
      options.workers = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout = std::chrono::milliseconds(
          std::strtoll(next(), nullptr, 10));
    } else if (arg == "--recv-timeout-ms") {
      options.recv_timeout = std::chrono::milliseconds(
          std::strtoll(next(), nullptr, 10));
    } else if (arg == "--max-queries") {
      options.max_queries = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--max-connections") {
      options.max_connections = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--accept-rate") {
      options.accept_rate_per_sec = std::strtod(next(), nullptr);
    } else if (arg == "--accept-burst") {
      options.accept_burst = std::strtod(next(), nullptr);
    } else if (arg == "--max-ready") {
      options.max_ready = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--drain-grace-ms") {
      options.drain_grace = std::chrono::milliseconds(
          std::strtoll(next(), nullptr, 10));
    } else {
      return usage(argv[0]);
    }
  }

  try {
    options.address = net::SocketAddress::parse(listen);
    options.rng_seed = splitmix64(seed, 0xdae0);

    std::printf("ppdsd: building scenario %s (seed %llu)...\n",
                scenario_text.c_str(),
                static_cast<unsigned long long>(seed));
    server::Daemon daemon(server::Scenario::make(scenario_text, seed),
                          options);
    daemon.start();
    std::printf("ppdsd: serving %s on %s with %zu workers\n",
                daemon.scenario().spec.to_string().c_str(),
                daemon.address().to_string().c_str(), options.workers);
    std::fflush(stdout);

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    std::printf("ppdsd: draining...\n");
    daemon.stop();

    const server::DaemonStatsSnapshot s = daemon.stats().snapshot();
    const crypto::OtAbortAudit& audit = crypto::ot_abort_audit();
    std::printf(
        "ppdsd: %llu connections (%llu clean, %llu reaped, %llu failed), "
        "%llu sessions ok, %llu failed\n",
        static_cast<unsigned long long>(s.connections_accepted),
        static_cast<unsigned long long>(s.connections_closed),
        static_cast<unsigned long long>(s.connections_reaped),
        static_cast<unsigned long long>(s.connections_failed),
        static_cast<unsigned long long>(s.sessions_ok),
        static_cast<unsigned long long>(s.sessions_failed));
    std::printf(
        "ppdsd: shed: %llu rejected (%llu over-cap, %llu rate-limited, "
        "%llu draining), %llu sessions shed; queue peaks: ready %llu, "
        "parked %llu; books %s\n",
        static_cast<unsigned long long>(s.connections_rejected),
        static_cast<unsigned long long>(s.rejected_over_cap),
        static_cast<unsigned long long>(s.rejected_rate_limited),
        static_cast<unsigned long long>(s.rejected_draining),
        static_cast<unsigned long long>(s.sessions_shed),
        static_cast<unsigned long long>(s.ready_peak),
        static_cast<unsigned long long>(s.parked_peak),
        s.books_balance() ? "balance" : "DO NOT BALANCE");
    std::printf(
        "ppdsd: ot abort audit: %llu aborts, %llu wiped clean "
        "(%llu frontier wipes)%s\n",
        static_cast<unsigned long long>(audit.aborts.load()),
        static_cast<unsigned long long>(audit.wiped.load()),
        static_cast<unsigned long long>(audit.frontier_wipes.load()),
        audit.aborts.load() == audit.wiped.load() ? " (all pools zeroed)"
                                                  : " (WIPE FAILURE)");
    return audit.aborts.load() == audit.wiped.load() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppdsd: %s\n", e.what());
    return 1;
  }
}
