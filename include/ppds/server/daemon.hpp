#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ppds/core/classification.hpp"
#include "ppds/core/similarity.hpp"
#include "ppds/net/control.hpp"
#include "ppds/net/socket.hpp"
#include "ppds/server/scenario.hpp"
#include "ppds/server/stats.hpp"

/// \file daemon.hpp
/// ppdsd: the real-socket protocol daemon.
///
/// Threading model — one acceptor, one poller, N session workers:
///
///   acceptor ──▶ parked connections ◀──────────────┐
///                      │ poll(2): readable?        │ session done:
///                      ▼                           │ park again
///                 ready queue ──▶ worker pool ─────┘
///
/// A connection between sessions sits PARKED: no worker is tied to it. The
/// poller thread polls every parked fd at once; only when a client actually
/// sends its next service-select byte does the connection move to the ready
/// queue and occupy a worker for exactly one session. N workers therefore
/// multiplex an unbounded number of keep-alive connections (64 concurrent
/// clients over 8 workers in the tests), and an idle client costs one
/// pollfd, not a blocked thread.
///
/// Failure containment: every session error — protocol violation, checksum
/// mismatch, peer disconnect mid-protocol, recv timeout — is caught at the
/// worker loop, counted, and ends ONLY that connection. The protocol layer
/// has already aborted-and-wiped its OT pools by the time the worker sees
/// the exception (OtBundle::abort on the serve() unwind path; audited by
/// crypto::ot_abort_audit), so a vanished peer leaves no pad material in
/// the heap and never wedges a worker.
///
/// Shutdown (stop(), the SIGTERM path) drains gracefully: the listener
/// closes first (no new connections), in-flight sessions run to completion
/// under their recv deadlines, parked connections are closed, and every
/// thread is joined before stop() returns.
///
/// Overload protection: admission control happens AT THE ACCEPT, before a
/// connection costs anything but a pollfd. A connection past
/// max_connections, past the accept-rate token bucket, or arriving during
/// a drain is answered with a structured busy frame (net/control.hpp) —
/// reason code plus a retry-after hint — and closed, so shedding is
/// explicit protocol a failover client can act on, never a silent RST.
/// Every shed is counted (connections_rejected, by reason), the ready
/// queue is bounded (max_ready), and a one-byte kHealth service select
/// returns the full DaemonStatsSnapshot so probes can watch queue depth
/// and shed rates from outside the process.
///
/// Each connection owns a PERSISTENT OtBundle: the one-time base-OT seed
/// agreement runs on the connection's first classification session, and
/// every later session on that connection stages and expands pads from
/// the same PPRF seeds, on the worker running that session.
///
/// Service state is built on first use: the SimilarityServer (whose
/// boundary enumeration refuses more than 20 dimensions) is constructed by
/// the first similarity session, so a scenario it cannot serve still serves
/// classification, and only the similarity sessions fail.

namespace ppds::server {

struct DaemonOptions {
  net::SocketAddress address;  ///< listen address (tcp port 0 = ephemeral)
  std::size_t workers = 4;     ///< concurrent session executors
  /// Per-recv deadline inside a running session: a peer that goes silent
  /// mid-protocol frees the worker after this long.
  std::chrono::milliseconds recv_timeout{30000};
  /// A parked connection with no traffic for this long is reaped.
  std::chrono::milliseconds idle_timeout{30000};
  /// Upper bound on the poller's poll(2) wait; bounds how stale the stop
  /// flag / idle bookkeeping can get.
  std::chrono::milliseconds poll_slice{200};
  /// Cap a classification handshake may ask for (forwarded to
  /// serve_session).
  std::size_t max_queries = 1 << 12;
  /// Root seed for per-connection server randomness: connection k draws
  /// from Rng(splitmix64(rng_seed, k)), so a single sequential client sees
  /// a DETERMINISTIC server — that is what lets the tests pin socket
  /// transcripts bit-identical to the in-process path.
  std::uint64_t rng_seed = 0x9d5d;
  net::SocketOptions socket;  ///< applied to every accepted connection
  /// Admission cap: accepts past this many LIVE connections (admitted and
  /// not yet retired) are shed with busy(over-cap). 0 = unlimited.
  std::size_t max_connections = 0;
  /// Accept-rate token bucket: sustained accepts per second (0 = no rate
  /// limit). Accepts past the bucket are shed with busy(rate-limited).
  double accept_rate_per_sec = 0.0;
  /// Token-bucket capacity: how large an accept burst is admitted before
  /// the rate limit bites.
  double accept_burst = 8.0;
  /// Retry-after hint carried in busy(over-cap) frames — how long a polite
  /// client should back off before knocking again.
  std::chrono::milliseconds busy_retry_after{50};
  /// Drain phase of stop(): how long to wait for live connections to
  /// finish (or say goodbye) while sheds answer busy(draining), before the
  /// hard teardown. Connections still live when the grace expires are
  /// counted as reaped.
  std::chrono::milliseconds drain_grace{250};
  /// Bound on the ready queue: the poller promotes at most this many
  /// connections ahead of the workers; the rest stay parked (still
  /// readable, promoted next slice). 0 = unbounded.
  std::size_t max_ready = 0;
};

/// Monotone counters, readable while the daemon runs (and after stop()).
/// The atomics make this struct non-copyable; snapshot() is the plain-value
/// view (and what the kHealth service serializes). Books invariant, held
/// whenever the daemon is drained: every accepted connection retires into
/// exactly one of closed / reaped / failed / rejected.
struct DaemonStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_closed{0};  ///< clean goodbyes/EOFs
  std::atomic<std::uint64_t> connections_reaped{0};  ///< idle-timeout kills
  std::atomic<std::uint64_t> connections_failed{0};  ///< failed-session kills
  /// Shed at the accept with a busy frame, before admission (split out by
  /// reason below).
  std::atomic<std::uint64_t> connections_rejected{0};
  std::atomic<std::uint64_t> rejected_over_cap{0};
  std::atomic<std::uint64_t> rejected_rate_limited{0};
  std::atomic<std::uint64_t> rejected_draining{0};
  std::atomic<std::uint64_t> sessions_ok{0};
  std::atomic<std::uint64_t> sessions_failed{0};  ///< aborted mid-protocol
  /// Admitted connections whose service select was answered busy(draining)
  /// instead of a session (counted under connections_closed for the books).
  std::atomic<std::uint64_t> sessions_shed{0};
  std::atomic<std::uint64_t> health_probes{0};
  std::atomic<std::uint64_t> active_sessions{0};  ///< gauge, not monotone
  /// Gauge: admitted and not yet retired (parked + ready + in a worker).
  std::atomic<std::uint64_t> live_connections{0};
  std::atomic<std::uint64_t> parked_depth{0};  ///< gauge
  std::atomic<std::uint64_t> ready_depth{0};   ///< gauge
  std::atomic<std::uint64_t> parked_peak{0};   ///< high-water mark
  std::atomic<std::uint64_t> ready_peak{0};    ///< high-water mark

  DaemonStatsSnapshot snapshot() const {
    DaemonStatsSnapshot s;
    s.connections_accepted = connections_accepted.load();
    s.connections_closed = connections_closed.load();
    s.connections_reaped = connections_reaped.load();
    s.connections_failed = connections_failed.load();
    s.connections_rejected = connections_rejected.load();
    s.rejected_over_cap = rejected_over_cap.load();
    s.rejected_rate_limited = rejected_rate_limited.load();
    s.rejected_draining = rejected_draining.load();
    s.sessions_ok = sessions_ok.load();
    s.sessions_failed = sessions_failed.load();
    s.sessions_shed = sessions_shed.load();
    s.health_probes = health_probes.load();
    s.active_sessions = active_sessions.load();
    s.live_connections = live_connections.load();
    s.parked_depth = parked_depth.load();
    s.ready_depth = ready_depth.load();
    s.parked_peak = parked_peak.load();
    s.ready_peak = ready_peak.load();
    return s;
  }
};

/// True when \p fd has bytes (or an EOF) waiting to be read RIGHT NOW — a
/// zero-timeout POLLIN poll. The idle reaper calls this before killing a
/// connection that crossed idle_timeout: bytes that arrived after poll(2)
/// returned but before the reap sweep mean the client spoke just in time,
/// so the connection is served, not reaped.
bool has_pending_input(int fd);

class Daemon {
 public:
  /// Binds the listen socket (throws on bind failure) but serves nothing
  /// until start().
  Daemon(Scenario scenario, DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start();
  /// Graceful two-phase drain; idempotent, returns once every thread is
  /// joined. Phase 1 (up to options.drain_grace): new accepts and parked
  /// service selects are shed with busy(draining) while in-flight sessions
  /// finish and goodbyes/health probes are still served. Phase 2 tears the
  /// rest down; connections still live are counted as reaped so the books
  /// balance.
  void stop();

  /// True once stop() has begun shedding (the SIGTERM drain window).
  bool draining() const { return draining_.load(); }

  /// The bound address with any ephemeral port resolved — what clients
  /// connect to.
  const net::SocketAddress& address() const { return listener_.address(); }

  const DaemonStats& stats() const { return stats_; }
  const Scenario& scenario() const { return scenario_; }

 private:
  struct Connection {
    std::unique_ptr<net::SocketEndpoint> channel;
    Rng rng;  ///< server-side randomness, sticky to the connection
    /// Persistent OT state: created lazily on the connection's first
    /// classification session so the PPRF seed agreement and expanded pad
    /// pools survive across keep-alive sessions. Torn down with the
    /// connection.
    std::unique_ptr<core::OtBundle> ot;
    std::uint64_t id = 0;
    std::chrono::steady_clock::time_point last_activity;
  };

  void acceptor_loop();
  void poller_loop();
  void worker_loop();
  /// Runs exactly one session (service select + protocol) on a ready
  /// connection. Returns false when the connection is finished (goodbye,
  /// EOF, or error) and must not be parked again.
  bool run_one_session(Connection& conn);
  void park(std::unique_ptr<Connection> conn);
  void wake_poller();
  /// Sheds a just-accepted connection with a structured busy frame
  /// (counted under connections_rejected + the per-reason counter).
  void reject(net::SocketEndpoint& channel, net::BusyReason reason,
              std::uint32_t retry_after_ms);
  /// Refreshes the depth gauges and their high-water marks; call under mu_
  /// after any queue change.
  void note_queue_depths();
  /// The similarity service, built by the first caller. A failed build
  /// throws to that caller and is retried by the next.
  const core::SimilarityServer& similarity_server();

  Scenario scenario_;
  DaemonOptions options_;
  core::ClassificationServer classification_;
  std::mutex similarity_mu_;
  std::unique_ptr<core::SimilarityServer> similarity_;
  net::SocketListener listener_;
  DaemonStats stats_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> next_connection_id_{0};

  std::mutex mu_;
  std::condition_variable ready_cv_;
  std::deque<std::unique_ptr<Connection>> parked_;
  std::deque<std::unique_ptr<Connection>> ready_;

  int poller_wake_fds_[2] = {-1, -1};  ///< self-pipe: park()/stop() -> poll
  std::thread acceptor_;
  std::thread poller_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace ppds::server
