/// Saturation benchmark for ppdsd — sessions/sec and latency percentiles
/// vs concurrent connection count over real loopback TCP.
///
/// Methodology:
///  * one in-process Daemon (fixed worker pool) on an ephemeral loopback
///    port — everything crosses the kernel socket layer, nothing crosses a
///    NIC, so the numbers isolate the daemon's multiplexing overhead;
///  * each connection runs complete classification sessions (service
///    select + handshake + one OMPE query) back to back, keep-alive;
///  * per-SESSION latency is measured client-side around the whole
///    session; throughput is total completed sessions over the slowest
///    client's wall time;
///  * the fast preset (loopback OT) keeps the protocol math small so the
///    daemon — not the crypto — saturates first; the secure engines are
///    characterized separately (ablation_ot_engines).
///
/// Results land in BENCH_server.json (schema: docs/PERFORMANCE.md §5).
/// Flags: --quick shrinks the sweep and per-connection session count (CI
/// smoke); the JSON records which mode produced it.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ppds/common/stopwatch.hpp"
#include "ppds/common/thread_pool.hpp"
#include "ppds/core/session.hpp"
#include "ppds/net/control.hpp"
#include "ppds/net/socket.hpp"
#include "ppds/server/client.hpp"
#include "ppds/server/daemon.hpp"

namespace {

using namespace ppds;

constexpr std::size_t kWorkers = 8;

struct Row {
  std::size_t connections = 0;
  std::size_t sessions = 0;
  double wall_ms = 0.0;
  double sessions_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(rank, sorted_ms.size() - 1)];
}

/// One sweep point: \p connections keep-alive clients, each running
/// \p sessions_per_conn classification sessions back to back.
Row measure(const server::Daemon& daemon, const server::Scenario& scenario,
            std::size_t connections, std::size_t sessions_per_conn) {
  std::vector<std::vector<double>> latencies(connections);
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(connections);
  Stopwatch wall;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      try {
        auto channel = net::socket_connect(
            daemon.address(), {},
            net::Deadline::after(std::chrono::milliseconds{10000}));
        channel->set_recv_deadline(
            net::Deadline::after(std::chrono::milliseconds{120000}));
        Rng rng(1000 + c);
        // One OtBundle per CONNECTION on both ends (the daemon does the
        // same): the seed agreement runs once and later sessions reuse the
        // PPRF ledger.
        core::OtBundle ot(scenario.config, rng);
        const std::vector<std::vector<double>> sample = {
            scenario.queries[c % scenario.queries.size()]};
        latencies[c].reserve(sessions_per_conn);
        for (std::size_t s = 0; s < sessions_per_conn; ++s) {
          Stopwatch session;
          (void)server::client_classify(*channel, scenario, sample, rng,
                                        &ot);
          latencies[c].push_back(session.millis());
        }
        server::client_goodbye(*channel);
      } catch (const std::exception& e) {
        failures.fetch_add(1);
        std::fprintf(stderr, "client %zu failed: %s\n", c, e.what());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  Row row;
  row.connections = connections;
  row.wall_ms = wall.millis();
  if (failures.load() > 0) {
    std::fprintf(stderr, "%zu of %zu clients failed; row discarded\n",
                 failures.load(), connections);
    return row;
  }
  std::vector<double> all;
  for (const auto& per_conn : latencies) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  std::sort(all.begin(), all.end());
  row.sessions = all.size();
  row.sessions_per_sec =
      static_cast<double>(all.size()) / (row.wall_ms / 1000.0);
  row.p50_ms = percentile(all, 0.50);
  row.p99_ms = percentile(all, 0.99);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = ppds::bench::has_flag(argc, argv, "--quick");
  const std::string spec = "diabetes:linear:fast";

  bench::banner("ppdsd saturation: sessions/sec vs concurrent connections");
  bench::note("loopback TCP, " + std::to_string(kWorkers) +
              " workers, one 1-query classification session per latency "
              "sample, fast preset (loopback OT)");

  const server::Scenario scenario = server::Scenario::make(spec, 2030);
  server::DaemonOptions options;
  options.address = net::SocketAddress::tcp("127.0.0.1", 0);
  options.workers = kWorkers;
  options.recv_timeout = std::chrono::milliseconds{60000};
  options.idle_timeout = std::chrono::milliseconds{60000};
  server::Daemon daemon(scenario, options);
  daemon.start();

  const std::vector<std::size_t> sweep =
      quick ? std::vector<std::size_t>{1, 4, 8}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64};
  const std::size_t sessions_per_conn = quick ? 10 : 40;

  std::printf("%12s %10s %10s %14s %9s %9s\n", "connections", "sessions",
              "wall_ms", "sessions/sec", "p50_ms", "p99_ms");
  bench::rule(68);

  auto rows = bench::Json::array();
  for (const std::size_t connections : sweep) {
    const Row row = measure(daemon, scenario, connections, sessions_per_conn);
    std::printf("%12zu %10zu %10.1f %14.1f %9.3f %9.3f\n", row.connections,
                row.sessions, row.wall_ms, row.sessions_per_sec, row.p50_ms,
                row.p99_ms);
    auto j = bench::Json::object();
    j.set("connections", static_cast<std::uint64_t>(row.connections));
    j.set("sessions", static_cast<std::uint64_t>(row.sessions));
    j.set("wall_ms", row.wall_ms);
    j.set("sessions_per_sec", row.sessions_per_sec);
    j.set("p50_ms", row.p50_ms);
    j.set("p99_ms", row.p99_ms);
    rows.push(std::move(j));
  }

  daemon.stop();
  const auto& stats = daemon.stats();
  std::printf("\ndaemon totals: %llu accepted, %llu sessions ok, %llu "
              "failed, %llu reaped\n",
              static_cast<unsigned long long>(
                  stats.connections_accepted.load()),
              static_cast<unsigned long long>(stats.sessions_ok.load()),
              static_cast<unsigned long long>(stats.sessions_failed.load()),
              static_cast<unsigned long long>(stats.connections_reaped.load()));

  // --- Silent keep-alive ---
  // The private OT engine on keep-alive connections: the persistent
  // per-connection bundle reuses one seed agreement (the first session's
  // p99), and every later session stages and expands its pads inline.
  bench::banner("silent keep-alive: one seed agreement per connection");
  const std::string silent_spec = "diabetes:linear:silent";
  const std::vector<std::size_t> silent_sweep =
      quick ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 4, 8};
  const std::size_t silent_sessions = quick ? 3 : 10;

  std::printf("%12s %10s %14s %9s %9s\n", "connections", "sessions",
              "sessions/sec", "p50_ms", "p99_ms");
  bench::rule(60);
  auto silent_rows = bench::Json::array();
  const server::Scenario silent_scenario =
      server::Scenario::make(silent_spec, 2031);
  server::Daemon silent_daemon(silent_scenario, options);
  silent_daemon.start();
  for (const std::size_t connections : silent_sweep) {
    const Row row =
        measure(silent_daemon, silent_scenario, connections, silent_sessions);
    std::printf("%12zu %10zu %14.1f %9.3f %9.3f\n", row.connections,
                row.sessions, row.sessions_per_sec, row.p50_ms, row.p99_ms);
    auto j = bench::Json::object();
    j.set("connections", static_cast<std::uint64_t>(row.connections));
    j.set("sessions", static_cast<std::uint64_t>(row.sessions));
    j.set("wall_ms", row.wall_ms);
    j.set("sessions_per_sec", row.sessions_per_sec);
    j.set("p50_ms", row.p50_ms);
    j.set("p99_ms", row.p99_ms);
    silent_rows.push(std::move(j));
  }
  silent_daemon.stop();
  const std::uint64_t silent_failed =
      silent_daemon.stats().sessions_failed.load();

  // --- Overload: offered load at 4x the admission cap ---
  // A small daemon (max_connections = capacity) is hit by 4x as many
  // clients as it will admit. Clients honor the structured busy frame:
  // shed at the door, they sleep the advertised retry-after and knock
  // again until their sessions complete. The numbers show that admission
  // control keeps the SERVED latency distribution flat (p99 bounded by
  // queueing inside the cap, not by the flood) while the overflow is shed
  // and counted, never silently dropped.
  bench::banner("overload: 4x offered load against the admission cap");
  constexpr std::size_t kCapacity = 4;
  const std::size_t overload_clients = kCapacity * 4;
  const std::size_t overload_sessions = quick ? 4 : 16;
  server::DaemonOptions overload_options = options;
  overload_options.workers = kCapacity;
  overload_options.max_connections = kCapacity;
  overload_options.busy_retry_after = std::chrono::milliseconds{5};
  server::Daemon overload_daemon(scenario, overload_options);
  overload_daemon.start();

  std::vector<std::vector<double>> overload_latencies(overload_clients);
  std::atomic<std::size_t> overload_failures{0};
  std::atomic<std::uint64_t> client_sheds{0};
  Stopwatch overload_wall;
  {
    std::vector<std::thread> clients;
    clients.reserve(overload_clients);
    for (std::size_t c = 0; c < overload_clients; ++c) {
      clients.emplace_back([&, c] {
        try {
          Rng rng(7000 + c);
          const std::vector<std::vector<double>> sample = {
              scenario.queries[c % scenario.queries.size()]};
          std::size_t done = 0;
          std::size_t knocks = 0;
          while (done < overload_sessions) {
            if (++knocks > overload_sessions * 1000) {
              throw ProtocolError("overload client starved out");
            }
            try {
              auto channel = net::socket_connect(
                  overload_daemon.address(), {},
                  net::Deadline::after(std::chrono::milliseconds{10000}));
              channel->set_recv_deadline(
                  net::Deadline::after(std::chrono::milliseconds{120000}));
              core::OtBundle ot(scenario.config, rng);
              for (; done < overload_sessions; ++done) {
                Stopwatch session;
                (void)server::client_classify(*channel, scenario, sample, rng,
                                              &ot);
                overload_latencies[c].push_back(session.millis());
              }
              server::client_goodbye(*channel);
            } catch (const net::BusyError& busy) {
              // Shed at the door: honor the retry hint and knock again.
              client_sheds.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::milliseconds{
                  std::max<std::uint64_t>(busy.retry_after_ms(), 1)});
            } catch (const ProtocolError&) {
              // The shed race: the daemon sent busy and closed, but our
              // select-byte write hit the RST before the frame was read.
              // Same admission verdict, same retry.
              client_sheds.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::milliseconds{5});
            }
          }
        } catch (const std::exception& e) {
          overload_failures.fetch_add(1);
          std::fprintf(stderr, "overload client %zu failed: %s\n", c,
                       e.what());
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double overload_wall_ms = overload_wall.millis();
  overload_daemon.stop();
  const server::DaemonStatsSnapshot overload_stats =
      overload_daemon.stats().snapshot();

  std::vector<double> overload_all;
  for (const auto& per_conn : overload_latencies) {
    overload_all.insert(overload_all.end(), per_conn.begin(), per_conn.end());
  }
  std::sort(overload_all.begin(), overload_all.end());
  const double shed_rate =
      overload_stats.connections_accepted == 0
          ? 0.0
          : static_cast<double>(overload_stats.connections_rejected) /
                static_cast<double>(overload_stats.connections_accepted);
  std::printf("%12s %10s %10s %10s %10s %9s %9s\n", "clients", "cap",
              "sessions", "sheds", "shed_rate", "p50_ms", "p99_ms");
  bench::rule(78);
  std::printf("%12zu %10zu %10zu %10llu %10.3f %9.3f %9.3f\n",
              overload_clients, kCapacity, overload_all.size(),
              static_cast<unsigned long long>(
                  overload_stats.connections_rejected),
              shed_rate, percentile(overload_all, 0.50),
              percentile(overload_all, 0.99));
  std::printf("books %s: %llu accepted = %llu closed + %llu reaped + %llu "
              "failed + %llu rejected\n",
              overload_stats.books_balance() ? "balance" : "DO NOT BALANCE",
              static_cast<unsigned long long>(
                  overload_stats.connections_accepted),
              static_cast<unsigned long long>(
                  overload_stats.connections_closed),
              static_cast<unsigned long long>(
                  overload_stats.connections_reaped),
              static_cast<unsigned long long>(
                  overload_stats.connections_failed),
              static_cast<unsigned long long>(
                  overload_stats.connections_rejected));

  auto doc = bench::Json::object();
  doc.set("bench", "fig_server");
  doc.set("quick", quick);
  doc.set("scenario", spec);
  doc.set("workers", static_cast<std::uint64_t>(kWorkers));
  doc.set("sessions_per_connection",
          static_cast<std::uint64_t>(sessions_per_conn));
  doc.set("sessions_ok", stats.sessions_ok.load());
  doc.set("sessions_failed", stats.sessions_failed.load());
  doc.set("rows", std::move(rows));
  auto silent_doc = bench::Json::object();
  silent_doc.set("scenario", silent_spec);
  silent_doc.set("hardware_threads",
                 static_cast<std::uint64_t>(ThreadPool::default_concurrency()));
  silent_doc.set("sessions_per_connection",
                 static_cast<std::uint64_t>(silent_sessions));
  silent_doc.set("sessions_failed", silent_failed);
  silent_doc.set("rows", std::move(silent_rows));
  doc.set("silent_keepalive", std::move(silent_doc));
  auto overload_doc = bench::Json::object();
  overload_doc.set("capacity", static_cast<std::uint64_t>(kCapacity));
  overload_doc.set("clients", static_cast<std::uint64_t>(overload_clients));
  overload_doc.set("sessions_per_client",
                   static_cast<std::uint64_t>(overload_sessions));
  overload_doc.set("wall_ms", overload_wall_ms);
  overload_doc.set("sessions_ok", overload_stats.sessions_ok);
  overload_doc.set("connections_rejected",
                   overload_stats.connections_rejected);
  overload_doc.set("client_sheds_observed", client_sheds.load());
  overload_doc.set("shed_rate", shed_rate);
  overload_doc.set("p50_ms", percentile(overload_all, 0.50));
  overload_doc.set("p99_ms", percentile(overload_all, 0.99));
  overload_doc.set("books_balance", overload_stats.books_balance());
  doc.set("overload", std::move(overload_doc));
  doc.write_file("BENCH_server.json");
  const bool overload_clean = overload_failures.load() == 0 &&
                              overload_stats.books_balance() &&
                              overload_stats.sessions_failed == 0;
  return stats.sessions_failed.load() + silent_failed == 0 && overload_clean
             ? 0
             : 1;
}
