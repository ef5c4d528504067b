#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"
#include "ppds/core/session.hpp"
#include "ppds/crypto/silent_ot.hpp"
#include "ppds/data/synthetic.hpp"
#include "ppds/net/socket.hpp"
#include "ppds/server/client.hpp"
#include "ppds/server/daemon.hpp"
#include "ppds/svm/smo.hpp"

namespace perfbench {

namespace {

using namespace ppds;

/// Per-recv budget of every client session: generous against the slowest
/// session (a1a, ~1 s) so a stall shows as a failure, never as a hang.
constexpr std::chrono::milliseconds kRecvBudget{60000};

/// Tolerance of tests/core/similarity_test.cpp. On near-identical models
/// (T down to ~1e-6 on diabetes) the private T misses it for about 1 in
/// 2,000 evaluations, so it is counted, not failed.
bool within_test_tolerance(double got, double want) {
  return std::abs(got - want) <= 1e-5 + 1e-3 * want;
}

/// Gross-error gate a similarity session must pass: three times the worst
/// absolute error seen in 300,000 private evaluations over 200 diabetes
/// seeds (6.6e-4), still far below the T of dissimilar models.
bool similarity_matches(double got, double want) {
  return std::abs(got - want) <= 2e-3 + 1e-3 * want;
}

std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t receiver_sync_expansions(core::OtBundle* ot) {
  if (ot == nullptr || ot->batched_receiver() == nullptr) return 0;
  const crypto::SilentPadReceiver* silent =
      ot->batched_receiver()->silent_engine();
  return silent == nullptr ? 0 : silent->sync_expansions();
}

/// In-process ppdsd on loopback TCP serving `diabetes:linear:silent`, with
/// half as many workers as hardware threads. Clients hold one keep-alive
/// connection each and either classify one query per session (with a
/// persistent client OtBundle, as ppdsd keeps one per connection) or run
/// one similarity evaluation per session.
class DaemonWorkload final : public Workload {
 public:
  DaemonWorkload(std::uint64_t seed, bool similarity, std::size_t connections,
                 double tail_percentile)
      : similarity_(similarity),
        tail_percentile_(tail_percentile),
        workers_(std::max<std::size_t>(1, hardware_threads() / 2)),
        scenario_(server::Scenario::make(kSpec, seed)),
        daemon_(scenario_, options(workers_)) {
    daemon_.start();
    expected_labels_.reserve(scenario_.queries.size());
    for (const auto& q : scenario_.queries) {
      expected_labels_.push_back(scenario_.server_model.predict(q));
    }
    expected_t_ = core::ordinary_similarity(
        scenario_.client_model, scenario_.server_model, scenario_.space);
    for (std::size_t c = 0; c < connections; ++c) {
      auto conn = std::make_unique<Conn>(splitmix64(seed, 0xc0 + c));
      conn->channel = net::socket_connect(
          daemon_.address(), {}, net::Deadline::after(kRecvBudget));
      if (!similarity_) {
        conn->ot = std::make_unique<core::OtBundle>(scenario_.config,
                                                    conn->rng);
      }
      conn->next_query = c % scenario_.queries.size();
      conns_.push_back(std::move(conn));
    }
  }

  ~DaemonWorkload() override { (void)finish(); }

  std::size_t connections() const override { return conns_.size(); }

  bool session(std::size_t c) override {
    Conn& k = *conns_[c];
    k.channel->set_recv_deadline(net::Deadline::after(kRecvBudget));
    if (similarity_) {
      const double t = server::client_similarity(*k.channel, scenario_, k.rng);
      if (!within_test_tolerance(t, expected_t_)) ++k.beyond_test_tolerance;
      if (!similarity_matches(t, expected_t_)) {
        std::fprintf(stderr, "similarity: private T %.9g, plaintext %.9g\n", t,
                     expected_t_);
        return false;
      }
      return true;
    }
    const std::size_t q = k.next_query;
    k.next_query = (q + conns_.size()) % scenario_.queries.size();
    const std::vector<int> labels = server::client_classify(
        *k.channel, scenario_, {scenario_.queries[q]}, k.rng, k.ot.get());
    k.last_query = q;
    return labels.size() == 1 && labels[0] == expected_labels_[q];
  }

  void replay(std::size_t c, std::uint64_t session_id,
              Tracer& tracer) override {
    if (similarity_) {
      tracer.child(session_id, "core.digest", [&] {
        keep(core::similarity_digest(scenario_.profile.kernel, scenario_.space,
                                     scenario_.config)[0]);
      });
      return;
    }
    tracer.child(session_id, "core.digest", [&] {
      keep(core::protocol_digest(scenario_.profile, scenario_.config)[0]);
    });
    const auto& query = scenario_.queries[conns_[c]->last_query];
    tracer.child(session_id, "core.transform", [&] {
      keep(scenario_.profile.transform(query).size());
    });
  }

  NetTotals net(std::size_t c) const override {
    const net::TrafficStats& s = conns_[c]->channel->stats();
    return NetTotals{s.bytes, s.messages, 0};
  }

  std::uint64_t sync_expansions() const override {
    std::uint64_t total = 0;
    for (const auto& k : conns_) total += receiver_sync_expansions(k->ot.get());
    return total;
  }

  ServerReport finish() override {
    if (!finished_) {
      finished_ = true;
      for (auto& k : conns_) {
        try {
          server::client_goodbye(*k->channel);
        } catch (const std::exception&) {
          // A connection the daemon already failed has nothing to close;
          // its failure is in sessions_failed.
        }
      }
      daemon_.stop();
      const server::DaemonStatsSnapshot s = daemon_.stats().snapshot();
      report_.books_balance = s.books_balance();
      report_.ready_peak = s.ready_peak;
      report_.parked_peak = s.parked_peak;
      report_.sessions_failed = s.sessions_failed;
    }
    return report_;
  }

  double tail_percentile() const override { return tail_percentile_; }

  std::map<std::string, std::string> describe() const override {
    std::map<std::string, std::string> facts = {
        {"scenario", kSpec},
        {"service", similarity_ ? "similarity" : "classification"},
        {"transport", "loopback tcp, in-process daemon"},
        {"daemon_workers", std::to_string(workers_)},
        {"connections", std::to_string(conns_.size())},
        {"load", "closed loop, one session at a time per connection"}};
    if (similarity_) {
      std::uint64_t beyond = 0;
      for (const auto& k : conns_) beyond += k->beyond_test_tolerance;
      facts["plaintext_t"] = std::to_string(expected_t_);
      facts["t_beyond_test_tolerance"] = std::to_string(beyond);
    }
    return facts;
  }

 private:
  static constexpr const char* kSpec = "diabetes:linear:silent";

  struct Conn {
    explicit Conn(std::uint64_t seed) : rng(seed) {}
    std::unique_ptr<net::SocketEndpoint> channel;
    Rng rng;  ///< referenced by `ot`; Conn is heap-pinned
    std::unique_ptr<core::OtBundle> ot;
    std::size_t next_query = 0;
    std::size_t last_query = 0;
    std::uint64_t beyond_test_tolerance = 0;
  };

  static server::DaemonOptions options(std::size_t workers) {
    server::DaemonOptions o;
    o.address = net::SocketAddress::tcp("127.0.0.1", 0);
    o.workers = workers;
    o.recv_timeout = kRecvBudget;
    o.idle_timeout = std::chrono::milliseconds{300000};
    return o;
  }

  bool similarity_;
  double tail_percentile_;
  std::size_t workers_;
  server::Scenario scenario_;
  server::Daemon daemon_;
  std::vector<int> expected_labels_;
  double expected_t_ = 0.0;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool finished_ = false;
  ServerReport report_;
};

/// The a1a paper polynomial kernel (123 features, 325,499 monomial
/// variates) on the core session layer: each connection is an AF_UNIX
/// socket pair with a server thread looping core::serve_session and the
/// client looping core::classify_session, both ends keeping a persistent
/// OtBundle under the silent preset.
class PolyWorkload final : public Workload {
 public:
  PolyWorkload(std::uint64_t seed, std::size_t connections)
      : spec_(*data::spec_by_name("a1a")) {
    spec_.seed = splitmix64(seed, 0x5ce0);
    auto [train, test] = data::generate(spec_);
    const svm::Kernel kernel = svm::Kernel::paper_polynomial(spec_.dim);
    model_ = svm::train_svm(train, kernel, {spec_.c_poly});
    profile_ = core::ClassificationProfile::make(spec_.dim, kernel);
    config_ = core::SchemeConfig::silent();
    server_ = std::make_unique<core::ClassificationServer>(model_, profile_,
                                                           config_);
    client_ = std::make_unique<core::ClassificationClient>(profile_, config_);
    queries_ = std::move(test.x);
    for (const auto& q : queries_) expected_labels_.push_back(model_.predict(q));

    for (std::size_t c = 0; c < connections; ++c) {
      auto conn = std::make_unique<Conn>(splitmix64(seed, 0xa0 + c),
                                         splitmix64(seed, 0x50 + c));
      auto [server_end, client_end] = net::make_socket_pair();
      conn->server_end = std::move(server_end);
      conn->client_end = std::move(client_end);
      conn->server_ot =
          std::make_unique<core::OtBundle>(config_, conn->server_rng);
      conn->client_ot =
          std::make_unique<core::OtBundle>(config_, conn->client_rng);
      conn->next_query = c % queries_.size();
      Conn* raw = conn.get();
      conn->server = std::thread([this, raw] { serve(*raw); });
      conns_.push_back(std::move(conn));
    }
  }

  ~PolyWorkload() override { (void)finish(); }

  std::size_t connections() const override { return conns_.size(); }

  bool session(std::size_t c) override {
    Conn& k = *conns_[c];
    const std::size_t q = k.next_query;
    k.next_query = (q + conns_.size()) % queries_.size();
    k.last_query = q;
    k.client_end->set_recv_deadline(net::Deadline::after(kRecvBudget));
    const std::vector<int> labels =
        core::classify_session(*client_, profile_, config_, *k.client_end,
                               {queries_[q]}, k.client_rng, k.client_ot.get());
    k.client_end->set_stage(net::Stage::kNone);
    k.client_end->set_session_id(0);
    ++k.completed;
    return labels.size() == 1 && labels[0] == expected_labels_[q];
  }

  void replay(std::size_t c, std::uint64_t session_id,
              Tracer& tracer) override {
    tracer.child(session_id, "core.digest", [&] {
      keep(core::protocol_digest(profile_, config_)[0]);
    });
    const auto& query = queries_[conns_[c]->last_query];
    tracer.child(session_id, "core.transform",
                 [&] { keep(profile_.transform(query).size()); });
  }

  NetTotals net(std::size_t c) const override {
    Conn& k = *conns_[c];
    const net::TrafficStats& s = k.client_end->stats();
    // The server publishes its totals after each session; wait until it has
    // caught up with the client so the window's bytes are all counted.
    std::unique_lock<std::mutex> lock(k.mu);
    k.cv.wait(lock, [&] { return k.served >= k.completed || k.server_done; });
    return NetTotals{s.bytes, s.messages, k.server_bytes};
  }

  std::uint64_t sync_expansions() const override {
    std::uint64_t total = 0;
    for (const auto& k : conns_) {
      total += receiver_sync_expansions(k->client_ot.get());
    }
    return total;
  }

  ServerReport finish() override {
    if (!finished_) {
      finished_ = true;
      for (auto& k : conns_) {
        k->closing.store(true);
        k->client_end->close();
      }
      for (auto& k : conns_) {
        if (k->server.joinable()) k->server.join();
        report_.sessions_failed += k->server_failed;
      }
    }
    return report_;
  }

  double tail_percentile() const override { return 0.8; }

  std::map<std::string, std::string> describe() const override {
    return {{"model", "a1a paper polynomial kernel (p=3)"},
            {"poly_arity", std::to_string(profile_.poly_arity)},
            {"preset", "SchemeConfig::silent()"},
            {"transport", "AF_UNIX socket pair, core session layer"},
            {"connections", std::to_string(conns_.size())},
            {"load", "closed loop, one 1-query session at a time per "
                     "connection"}};
  }

 private:
  struct Conn {
    Conn(std::uint64_t client_seed, std::uint64_t server_seed)
        : client_rng(client_seed), server_rng(server_seed) {}
    std::unique_ptr<net::SocketEndpoint> server_end;
    std::unique_ptr<net::SocketEndpoint> client_end;
    Rng client_rng;  ///< referenced by client_ot; Conn is heap-pinned
    Rng server_rng;  ///< referenced by server_ot
    std::unique_ptr<core::OtBundle> server_ot;
    std::unique_ptr<core::OtBundle> client_ot;
    std::size_t next_query = 0;
    std::size_t last_query = 0;
    std::uint64_t completed = 0;  ///< client thread only (read after joins)
    std::atomic<bool> closing{false};
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    std::uint64_t served = 0;        ///< guarded by mu
    std::uint64_t server_bytes = 0;  ///< guarded by mu
    std::uint64_t server_failed = 0; ///< guarded by mu
    bool server_done = false;        ///< guarded by mu
    std::thread server;
  };

  void serve(Conn& k) {
    for (;;) {
      try {
        k.server_end->set_recv_deadline(net::Deadline{});
        core::serve_session(*server_, profile_, config_, *k.server_end,
                            k.server_rng, 1, k.server_ot.get());
        k.server_end->set_stage(net::Stage::kNone);
        k.server_end->set_session_id(0);
        std::lock_guard<std::mutex> lock(k.mu);
        ++k.served;
        k.server_bytes = k.server_end->stats().bytes;
      } catch (const std::exception&) {
        // The client closing its end between sessions ends the loop; any
        // other exception is a failed session.
        k.server_end->close();
        std::lock_guard<std::mutex> lock(k.mu);
        if (!k.closing.load()) ++k.server_failed;
        k.server_done = true;
        k.cv.notify_all();
        return;
      }
      k.cv.notify_all();
    }
  }

  data::DatasetSpec spec_;
  svm::SvmModel model_;
  core::ClassificationProfile profile_;
  core::SchemeConfig config_;
  std::unique_ptr<core::ClassificationServer> server_;
  std::unique_ptr<core::ClassificationClient> client_;
  std::vector<std::vector<double>> queries_;
  std::vector<int> expected_labels_;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool finished_ = false;
  ServerReport report_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  const std::size_t threads = hardware_threads();
  const std::size_t half = std::max<std::size_t>(1, threads / 2);
  if (name == "linear_keepalive") {
    return std::make_unique<DaemonWorkload>(seed, false, threads, 0.999);
  }
  if (name == "poly_a1a") return std::make_unique<PolyWorkload>(seed, half);
  if (name == "similarity_silent") {
    return std::make_unique<DaemonWorkload>(seed, true, half, 0.9);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
