#include "ppds/server/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "ppds/common/error.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/core/session.hpp"
#include "ppds/net/channel.hpp"

namespace ppds::server {

namespace {

bool is_peer_gone(const std::string& what) {
  return what.find("closed by peer") != std::string::npos;
}

void update_peak(std::atomic<std::uint64_t>& peak, std::uint64_t value) {
  std::uint64_t seen = peak.load();
  while (seen < value && !peak.compare_exchange_weak(seen, value)) {
  }
}

}  // namespace

bool has_pending_input(int fd) {
  pollfd probe{fd, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&probe, 1, 0);
  } while (rc < 0 && errno == EINTR);
  // POLLHUP/POLLERR count as pending too: an EOF that raced the idle
  // crossing should reach a worker (clean close), not the reaper.
  return rc > 0 && (probe.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

Daemon::Daemon(Scenario scenario, DaemonOptions options)
    : scenario_(std::move(scenario)),
      options_(options),
      classification_(scenario_.server_model, scenario_.profile,
                      scenario_.config),
      listener_(options_.address) {
  if (options_.workers == 0) {
    throw InvalidArgument("daemon: need at least one worker");
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  if (started_) return;
  started_ = true;
  if (::pipe(poller_wake_fds_) != 0) {
    throw ProtocolError("daemon: self-pipe creation failed: " +
                        std::string(std::strerror(errno)));
  }
  // Nonblocking both ways: a wake on an already-signaled poller must not
  // block the worker doing the parking, and the poller's drain loop must
  // stop at "no more wake bytes" instead of blocking on the read.
  (void)::fcntl(poller_wake_fds_[0], F_SETFL, O_NONBLOCK);
  (void)::fcntl(poller_wake_fds_[1], F_SETFL, O_NONBLOCK);
  acceptor_ = std::thread([this] { acceptor_loop(); });
  poller_ = std::thread([this] { poller_loop(); });
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Daemon::stop() {
  if (!started_ || joined_) return;
  // Phase 1 — drain: the acceptor now sheds new connections with
  // busy(draining), workers answer parked service selects the same way,
  // and in-flight sessions run to completion. Goodbyes and health probes
  // are still served, so polite clients retire themselves and probes can
  // watch the drain. Wait (bounded by drain_grace) for the live set to
  // empty before the hard teardown.
  if (!draining_.exchange(true)) {
    const auto deadline =
        std::chrono::steady_clock::now() + options_.drain_grace;
    while (stats_.live_connections.load() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      wake_poller();  // promote parked selects/EOFs promptly
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  // Phase 2 — hard stop.
  joined_ = true;
  {
    // Under mu_: a worker between its predicate check and its sleep would
    // otherwise miss the notify below and never wake to be joined.
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true);
  }
  wake_poller();
  ready_cv_.notify_all();
  // Acceptor and poller run bounded poll slices; workers drain their
  // in-flight sessions (bounded by the per-recv deadline) and exit.
  acceptor_.join();
  poller_.join();
  for (std::thread& w : workers_) w.join();
  listener_.close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Connections that outlived the drain grace retire as reaped — a
    // daemon-initiated close — so the books invariant (accepted == closed
    // + reaped + failed + rejected) holds after every shutdown.
    const std::uint64_t leftovers = parked_.size() + ready_.size();
    stats_.connections_reaped.fetch_add(leftovers);
    stats_.live_connections.fetch_sub(leftovers);
    parked_.clear();  // unique_ptr teardown closes the sockets
    ready_.clear();
    note_queue_depths();
  }
  ::close(poller_wake_fds_[0]);
  ::close(poller_wake_fds_[1]);
  poller_wake_fds_[0] = poller_wake_fds_[1] = -1;
}

void Daemon::wake_poller() {
  if (poller_wake_fds_[1] < 0) return;
  const std::uint8_t byte = 1;
  ssize_t n;
  do {
    n = ::write(poller_wake_fds_[1], &byte, 1);
  } while (n < 0 && errno == EINTR);
  // EAGAIN means the pipe already holds a wake byte: good enough.
}

void Daemon::note_queue_depths() {
  const std::uint64_t parked = parked_.size();
  const std::uint64_t ready = ready_.size();
  stats_.parked_depth.store(parked);
  stats_.ready_depth.store(ready);
  update_peak(stats_.parked_peak, parked);
  update_peak(stats_.ready_peak, ready);
}

const core::SimilarityServer& Daemon::similarity_server() {
  std::lock_guard<std::mutex> lock(similarity_mu_);
  if (similarity_ == nullptr) {
    similarity_ = std::make_unique<core::SimilarityServer>(
        scenario_.server_model, scenario_.space, scenario_.config);
  }
  return *similarity_;
}

void Daemon::park(std::unique_ptr<Connection> conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    parked_.push_back(std::move(conn));
    note_queue_depths();
  }
  wake_poller();
}

void Daemon::reject(net::SocketEndpoint& channel, net::BusyReason reason,
                    std::uint32_t retry_after_ms) {
  stats_.connections_rejected.fetch_add(1);
  switch (reason) {
    case net::BusyReason::kOverCap:
      stats_.rejected_over_cap.fetch_add(1);
      break;
    case net::BusyReason::kRateLimited:
      stats_.rejected_rate_limited.fetch_add(1);
      break;
    case net::BusyReason::kDraining:
      stats_.rejected_draining.fetch_add(1);
      break;
  }
  try {
    net::send_busy(channel, net::BusyFrame{reason, retry_after_ms});
  } catch (const std::exception&) {
    // The peer may already be gone; the shed is counted either way.
  }
  channel.close();
}

void Daemon::acceptor_loop() {
  // Accept-rate token bucket. Only this thread admits, so the bucket is
  // plain acceptor-local state: refilled lazily from the wall clock at
  // each accept, capped at accept_burst.
  double tokens = options_.accept_burst;
  auto last_refill = std::chrono::steady_clock::now();
  while (!stopping_.load()) {
    std::unique_ptr<net::SocketEndpoint> channel;
    try {
      channel = listener_.accept(
          net::Deadline::after(options_.poll_slice), options_.socket);
    } catch (const TimeoutError&) {
      continue;  // slice expired: re-check the stop flag
    } catch (const std::exception&) {
      break;  // listener torn down
    }
    stats_.connections_accepted.fetch_add(1);
    // Admission control: a shed connection gets a structured busy frame —
    // why, and how long to back off — instead of a silent RST, before it
    // has cost anything but the accept.
    if (draining_.load()) {
      // retry_after 0: this daemon is going away — fail over, don't wait.
      reject(*channel, net::BusyReason::kDraining, 0);
      continue;
    }
    if (options_.max_connections != 0 &&
        stats_.live_connections.load() >= options_.max_connections) {
      reject(*channel, net::BusyReason::kOverCap,
             static_cast<std::uint32_t>(options_.busy_retry_after.count()));
      continue;
    }
    if (options_.accept_rate_per_sec > 0.0) {
      const auto now = std::chrono::steady_clock::now();
      tokens += options_.accept_rate_per_sec *
                std::chrono::duration<double>(now - last_refill).count();
      tokens = std::min(tokens, options_.accept_burst);
      last_refill = now;
      if (tokens < 1.0) {
        // Hint the time until a whole token accrues at the refill rate.
        const double wait_ms =
            (1.0 - tokens) * 1000.0 / options_.accept_rate_per_sec;
        reject(*channel, net::BusyReason::kRateLimited,
               static_cast<std::uint32_t>(wait_ms) + 1);
        continue;
      }
      tokens -= 1.0;
    }
    auto conn = std::make_unique<Connection>();
    conn->channel = std::move(channel);
    conn->id = next_connection_id_.fetch_add(1);
    conn->rng = Rng(splitmix64(options_.rng_seed, conn->id));
    conn->last_activity = std::chrono::steady_clock::now();
    stats_.live_connections.fetch_add(1);
    park(std::move(conn));
  }
}

void Daemon::poller_loop() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;  // ids[i] owns fds[i + 1]
  while (!stopping_.load()) {
    fds.clear();
    ids.clear();
    fds.push_back(pollfd{poller_wake_fds_[0], POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& conn : parked_) {
        fds.push_back(pollfd{conn->channel->fd(), POLLIN, 0});
        ids.push_back(conn->id);
      }
    }
    int rc;
    do {
      rc = ::poll(fds.data(), fds.size(),
                  static_cast<int>(options_.poll_slice.count()));
    } while (rc < 0 && errno == EINTR);
    if (stopping_.load()) break;
    if (fds[0].revents != 0) {  // drain wake bytes
      std::uint8_t buf[64];
      while (::read(poller_wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    const auto now = std::chrono::steady_clock::now();
    bool woke = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (fds[i + 1].revents == 0) continue;
        // Bounded ready queue: promote at most max_ready connections
        // ahead of the workers; the rest stay parked (still readable —
        // they are promoted on a later slice once workers catch up).
        if (options_.max_ready != 0 &&
            ready_.size() >= options_.max_ready) {
          break;
        }
        // Readable (or hung up — the worker's recv turns that into the
        // clean-EOF path): promote to the ready queue.
        const auto it = std::find_if(
            parked_.begin(), parked_.end(),
            [&](const auto& c) { return c->id == ids[i]; });
        if (it == parked_.end()) continue;
        (*it)->last_activity = now;
        ready_.push_back(std::move(*it));
        parked_.erase(it);
        woke = true;
      }
      // Idle reaping: a parked connection nobody has spoken on for
      // idle_timeout is torn down (shutdown wakes any confused peer).
      for (auto it = parked_.begin(); it != parked_.end();) {
        if (now - (*it)->last_activity < options_.idle_timeout) {
          ++it;
          continue;
        }
        // Reap race: bytes that landed AFTER poll(2) returned (or a
        // promotion skipped by the max_ready bound above) mean the client
        // spoke before the reap swept — serve it, don't kill it. The
        // max_ready bound still holds: with the queue full it stays parked
        // with a fresh idle clock and is promoted on a later slice.
        if (has_pending_input((*it)->channel->fd())) {
          (*it)->last_activity = now;
          if (options_.max_ready != 0 &&
              ready_.size() >= options_.max_ready) {
            ++it;
            continue;
          }
          ready_.push_back(std::move(*it));
          it = parked_.erase(it);
          woke = true;
          continue;
        }
        (*it)->channel->close();
        it = parked_.erase(it);
        stats_.connections_reaped.fetch_add(1);
        stats_.live_connections.fetch_sub(1);
      }
      note_queue_depths();
    }
    if (woke) ready_cv_.notify_all();
  }
}

void Daemon::worker_loop() {
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_cv_.wait(lock, [this] {
        return stopping_.load() || !ready_.empty();
      });
      if (stopping_.load()) return;  // drain: unstarted sessions are dropped
      conn = std::move(ready_.front());
      ready_.pop_front();
      note_queue_depths();
    }
    stats_.active_sessions.fetch_add(1);
    const bool keep = run_one_session(*conn);
    stats_.active_sessions.fetch_sub(1);
    if (keep && !stopping_.load()) {
      conn->last_activity = std::chrono::steady_clock::now();
      park(std::move(conn));
    } else if (keep) {
      // Hard stop landed while this session ran: the connection is
      // healthy but the daemon is exiting — retire it as reaped so the
      // books still balance.
      stats_.connections_reaped.fetch_add(1);
      stats_.live_connections.fetch_sub(1);
    } else {
      // run_one_session already counted the close/failure; retire the
      // live gauge here where the connection is actually destroyed.
      stats_.live_connections.fetch_sub(1);
    }
    // unique_ptr teardown closes the socket and wipes any staging.
  }
}

bool Daemon::run_one_session(Connection& conn) {
  net::SocketEndpoint& channel = *conn.channel;
  bool in_session = false;
  try {
    channel.set_recv_deadline(net::Deadline::after(options_.recv_timeout));
    const Bytes select = channel.recv();
    if (select.size() != 1) {
      throw ProtocolError("service select: expected 1 byte, got " +
                          std::to_string(select.size()));
    }
    const Service service = static_cast<Service>(select[0]);
    if (service == Service::kGoodbye) {
      channel.close();
      stats_.connections_closed.fetch_add(1);
      return false;
    }
    if (service == Service::kHealth) {
      // Probe: answer the full snapshot as an ordinary data frame (stage
      // kNone, session 0 — exactly where the select left us) and keep the
      // connection alive. Served even while draining, so probes can watch
      // a shutdown progress.
      stats_.health_probes.fetch_add(1);
      channel.send(encode_stats(stats_.snapshot()));
      return true;
    }
    if (draining_.load()) {
      // The client asked for a session during the drain window: shed it
      // with a structured busy frame (retry_after 0 = fail over, this
      // daemon is going away) instead of starting work it cannot finish.
      net::send_busy(channel,
                     net::BusyFrame{net::BusyReason::kDraining, 0});
      stats_.sessions_shed.fetch_add(1);
      stats_.connections_closed.fetch_add(1);
      channel.close();
      return false;
    }
    in_session = true;
    switch (service) {
      case Service::kClassification:
        // One OtBundle per CONNECTION: the base-OT seed agreement runs once
        // on the first session and later sessions reuse its PPRF seeds.
        if (conn.ot == nullptr) {
          conn.ot =
              std::make_unique<core::OtBundle>(scenario_.config, conn.rng);
        }
        core::serve_session(classification_, scenario_.profile,
                            scenario_.config, channel, conn.rng,
                            options_.max_queries, conn.ot.get());
        break;
      case Service::kSimilarity: {
        // One OtBundle per similarity SESSION: the client's three-argument
        // client_similarity() has no connection bundle to match a kept one.
        core::OtBundle ot(scenario_.config, conn.rng);
        core::serve_similarity_session(similarity_server(),
                                       scenario_.profile.kernel,
                                       scenario_.space, scenario_.config,
                                       channel, conn.rng, &ot);
        break;
      }
      default:
        throw ProtocolError("service select: unknown service byte " +
                            std::to_string(select[0]));
    }
    // Keep-alive: both parties return to the pre-session frame state so the
    // next session on this connection starts from the same place.
    channel.set_stage(net::Stage::kNone);
    channel.set_session_id(0);
    stats_.sessions_ok.fetch_add(1);
    return true;
  } catch (const ProtocolError& e) {
    // EOF while WAITING for a service byte is how clients without a
    // goodbye (or reaped by their own timeouts) leave: a clean close.
    // The same EOF mid-protocol is an abort — by the time the exception
    // reaches this frame the protocol layer has wiped its OT pools
    // (OtBundle::abort on the unwind path).
    if (!in_session && is_peer_gone(e.what())) {
      stats_.connections_closed.fetch_add(1);
    } else {
      stats_.sessions_failed.fetch_add(1);
      stats_.connections_failed.fetch_add(1);
    }
  } catch (const std::exception&) {
    // TimeoutError (silent peer), BackpressureError (peer not draining),
    // serialization errors: the session dies, the worker survives.
    stats_.sessions_failed.fetch_add(1);
    stats_.connections_failed.fetch_add(1);
  }
  conn.channel->close();
  return false;
}

}  // namespace ppds::server
