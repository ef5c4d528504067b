/// ppds-cli — thin client for one or more running ppdsd daemons.
///
/// Connects, runs one or more protocol sessions on the keep-alive
/// connection, prints the results, and says goodbye. The --scenario/--seed
/// pair must match the daemon's or the handshake digest check denies the
/// session (that denial is itself a useful smoke test).
///
///   ppds-cli --connect tcp:127.0.0.1:7441 classify --count 8
///   ppds-cli --connect unix:/tmp/ppds.sock similarity
///   ppds-cli --connect ... classify --count 4 similarity   # two sessions
///
/// --connect takes a comma-separated replica list; classify then shards
/// the batch across the fleet through server::DaemonSet, failing chunks
/// over on busy frames / dead daemons, and finishes as long as one replica
/// survives (labels are identical either way):
///
///   ppds-cli --connect tcp:127.0.0.1:7441,tcp:127.0.0.1:7442
///            classify --count 32   (one command line)
///   ppds-cli --connect tcp:127.0.0.1:7441 health   # probe the counters

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ppds/net/socket.hpp"
#include "ppds/server/client.hpp"
#include "ppds/server/daemon_set.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --connect <addr>[,<addr>...]   (tcp:<host>:<port>|"
      "unix:<path>)\n"
      "          [--scenario <spec>] [--seed N] [--rng N]\n"
      "          (spec: <dataset>[:linear|:poly][:silent|:secure|:fast];\n"
      "           default diabetes:linear:silent)\n"
      "          [--recv-timeout-ms N] [--chunk-size N]\n"
      "          <command>...\n"
      "commands:\n"
      "  classify [--count N]   classify N held-out samples (default 4)\n"
      "  similarity             evaluate model similarity T\n"
      "  health                 print each daemon's counter snapshot\n"
      "With several --connect addresses, classify shards its batch across\n"
      "the replicas (chunks of --chunk-size) and fails over on busy frames\n"
      "or dead daemons; labels are identical to a single-daemon run.\n",
      argv0);
  return 2;
}

std::vector<ppds::net::SocketAddress> parse_connect(const std::string& spec) {
  std::vector<ppds::net::SocketAddress> addresses;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t comma = spec.find(',', begin);
    const std::string one =
        spec.substr(begin, comma == std::string::npos ? std::string::npos
                                                      : comma - begin);
    if (!one.empty()) {
      addresses.push_back(ppds::net::SocketAddress::parse(one));
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return addresses;
}

void print_health(const std::string& where,
                  const ppds::server::DaemonStatsSnapshot& s) {
  std::printf(
      "health %s: live %llu (active %llu, parked %llu, ready %llu)\n"
      "  connections: %llu accepted = %llu closed + %llu reaped + "
      "%llu failed + %llu rejected (%llu over-cap, %llu rate-limited, "
      "%llu draining)%s\n"
      "  sessions: %llu ok, %llu failed, %llu shed, %llu health probes; "
      "queue peaks ready %llu / parked %llu\n",
      where.c_str(), static_cast<unsigned long long>(s.live_connections),
      static_cast<unsigned long long>(s.active_sessions),
      static_cast<unsigned long long>(s.parked_depth),
      static_cast<unsigned long long>(s.ready_depth),
      static_cast<unsigned long long>(s.connections_accepted),
      static_cast<unsigned long long>(s.connections_closed),
      static_cast<unsigned long long>(s.connections_reaped),
      static_cast<unsigned long long>(s.connections_failed),
      static_cast<unsigned long long>(s.connections_rejected),
      static_cast<unsigned long long>(s.rejected_over_cap),
      static_cast<unsigned long long>(s.rejected_rate_limited),
      static_cast<unsigned long long>(s.rejected_draining),
      s.books_balance() ? "" : "  [books still settling]",
      static_cast<unsigned long long>(s.sessions_ok),
      static_cast<unsigned long long>(s.sessions_failed),
      static_cast<unsigned long long>(s.sessions_shed),
      static_cast<unsigned long long>(s.health_probes),
      static_cast<unsigned long long>(s.ready_peak),
      static_cast<unsigned long long>(s.parked_peak));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppds;

  std::string connect;
  std::string scenario_text = "diabetes:linear:silent";
  std::uint64_t seed = 1;
  std::uint64_t rng_seed = 42;
  std::chrono::milliseconds recv_timeout{30000};
  std::size_t chunk_size = 8;  // fleet mode: queries per sharded session

  struct Command {
    std::string kind;
    std::size_t count = 4;
  };
  std::vector<Command> commands;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ppds-cli: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--connect") {
      connect = next();
    } else if (arg == "--scenario") {
      scenario_text = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--rng") {
      rng_seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--recv-timeout-ms") {
      recv_timeout =
          std::chrono::milliseconds(std::strtoll(next(), nullptr, 10));
    } else if (arg == "--chunk-size") {
      chunk_size = std::strtoull(next(), nullptr, 10);
      if (chunk_size == 0) {
        std::fprintf(stderr, "ppds-cli: --chunk-size must be >= 1\n");
        return 2;
      }
    } else if (arg == "classify") {
      commands.push_back({"classify", 4});
    } else if (arg == "similarity") {
      commands.push_back({"similarity", 0});
    } else if (arg == "health") {
      commands.push_back({"health", 0});
    } else if (arg == "--count" && !commands.empty() &&
               commands.back().kind == "classify") {
      commands.back().count = std::strtoull(next(), nullptr, 10);
    } else {
      return usage(argv[0]);
    }
  }
  if (connect.empty() || commands.empty()) return usage(argv[0]);

  try {
    const server::Scenario scenario =
        server::Scenario::make(scenario_text, seed);
    Rng rng(rng_seed);

    const std::vector<net::SocketAddress> addresses = parse_connect(connect);
    if (addresses.empty()) return usage(argv[0]);

    if (addresses.size() > 1) {
      // Fleet mode: classify shards across the replicas through DaemonSet;
      // similarity takes the first replica that answers; health probes
      // every replica.
      for (const Command& cmd : commands) {
        if (cmd.kind == "classify") {
          const std::size_t count =
              std::min(cmd.count, scenario.queries.size());
          const std::vector<std::vector<double>> samples(
              scenario.queries.begin(),
              scenario.queries.begin() + static_cast<std::ptrdiff_t>(count));
          server::DaemonSetOptions set_options;
          set_options.chunk_size = chunk_size;
          set_options.recv_timeout = recv_timeout;
          server::DaemonSet set(scenario, addresses, set_options);
          const std::vector<int> labels = set.classify(samples, rng_seed);
          std::printf("classify (%zu samples over %zu replicas):", count,
                      addresses.size());
          std::size_t agree = 0;
          for (std::size_t i = 0; i < labels.size(); ++i) {
            std::printf(" %+d", labels[i]);
            agree += labels[i] == scenario.server_model.predict(samples[i]);
          }
          std::printf("  [%zu/%zu match the plain model]\n", agree,
                      labels.size());
          const server::DaemonSetStats& fs = set.stats();
          std::printf(
              "  fleet: %llu chunks ok, %llu retried, %llu busy sheds, "
              "%llu attempts failed, %llu replicas lost\n",
              static_cast<unsigned long long>(fs.chunks_ok.load()),
              static_cast<unsigned long long>(fs.chunk_retries.load()),
              static_cast<unsigned long long>(fs.busy_sheds.load()),
              static_cast<unsigned long long>(fs.attempts_failed.load()),
              static_cast<unsigned long long>(fs.replicas_lost.load()));
        } else if (cmd.kind == "similarity") {
          bool served = false;
          for (const net::SocketAddress& address : addresses) {
            try {
              auto one = net::socket_connect(address);
              one->set_recv_deadline(net::Deadline::after(recv_timeout));
              const double t =
                  server::client_similarity(*one, scenario, rng);
              server::client_goodbye(*one);
              std::printf("similarity: T = %.6f  [via %s]\n", t,
                          address.to_string().c_str());
              served = true;
              break;
            } catch (const std::exception& e) {
              std::fprintf(stderr, "ppds-cli: %s: %s\n",
                           address.to_string().c_str(), e.what());
            }
          }
          if (!served) {
            throw ProtocolError("similarity: every replica failed");
          }
        } else {  // health
          for (const net::SocketAddress& address : addresses) {
            try {
              auto one = net::socket_connect(address);
              one->set_recv_deadline(net::Deadline::after(recv_timeout));
              print_health(address.to_string(), server::client_health(*one));
              server::client_goodbye(*one);
            } catch (const std::exception& e) {
              std::fprintf(stderr, "ppds-cli: %s: %s\n",
                           address.to_string().c_str(), e.what());
            }
          }
        }
      }
      return 0;
    }

    auto channel = net::socket_connect(addresses.front());
    channel->set_recv_deadline(net::Deadline::after(recv_timeout));

    // One OtBundle for the whole connection, so the one-round seed
    // agreement runs once and every classify command after the first draws
    // from the persistent pad ledger.
    core::OtBundle ot(scenario.config, rng);

    for (const Command& cmd : commands) {
      if (cmd.kind == "classify") {
        const std::size_t count =
            std::min(cmd.count, scenario.queries.size());
        const std::vector<std::vector<double>> samples(
            scenario.queries.begin(),
            scenario.queries.begin() + static_cast<std::ptrdiff_t>(count));
        const std::vector<int> labels = server::client_classify(
            *channel, scenario, samples, rng, &ot);
        std::printf("classify (%zu samples):", count);
        std::size_t agree = 0;
        for (std::size_t i = 0; i < labels.size(); ++i) {
          std::printf(" %+d", labels[i]);
          agree += labels[i] ==
                   scenario.server_model.predict(samples[i]);
        }
        std::printf("  [%zu/%zu match the plain model]\n", agree,
                    labels.size());
      } else if (cmd.kind == "similarity") {
        const double t = server::client_similarity(*channel, scenario, rng);
        std::printf("similarity: T = %.6f\n", t);
      } else {  // health
        print_health(addresses.front().to_string(),
                     server::client_health(*channel));
      }
    }
    server::client_goodbye(*channel);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppds-cli: %s\n", e.what());
    return 1;
  }
}
