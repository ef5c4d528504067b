#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ppds/common/bytes.hpp"
#include "ppds/core/session.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/net/control.hpp"
#include "ppds/net/socket.hpp"
#include "ppds/server/client.hpp"
#include "ppds/server/daemon.hpp"
#include "ppds/server/daemon_set.hpp"
#include "ppds/server/stats.hpp"

/// \file overload_test.cpp
/// Overload protection and failover, end to end: admission control
/// (max_connections cap, accept-rate token bucket) shedding with
/// structured busy frames, the kHealth probe, bounded queues, the
/// idle-reap race fix, two-phase drain accounting, and the DaemonSet
/// failover client completing sharded batches with replicas dying under
/// it. The ChaosDaemon suite is daemon-level fault injection (kill
/// mid-batch, dead replicas, churn storms over silent connections) with
/// the abort-wipe audit held throughout.

namespace ppds::server {
namespace {

using namespace std::chrono_literals;

const Scenario& silent_scenario() {
  static const Scenario s = Scenario::make("diabetes:linear:silent", 2029);
  return s;
}

DaemonOptions loopback_options() {
  DaemonOptions options;
  options.address = net::SocketAddress::tcp("127.0.0.1", 0);
  options.recv_timeout = 60000ms;
  options.idle_timeout = 60000ms;
  options.poll_slice = 25ms;
  return options;
}

std::unique_ptr<net::SocketEndpoint> connect_to(const Daemon& daemon) {
  auto channel =
      net::socket_connect(daemon.address(), {}, net::Deadline::after(10000ms));
  channel->set_recv_deadline(net::Deadline::after(120000ms));
  return channel;
}

template <typename Pred>
bool eventually(const Pred& done,
                std::chrono::milliseconds budget = 15000ms) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(10ms);
  }
  return true;
}

/// Expects the daemon to answer this connection with a busy frame (the
/// connection does nothing but wait — no writes, so the frame cannot race
/// an RST) and returns it.
net::BusyFrame expect_busy(net::SocketEndpoint& channel) {
  try {
    (void)channel.recv(net::Deadline::after(10000ms));
  } catch (const net::BusyError& e) {
    return e.busy();
  }
  ADD_FAILURE() << "expected a busy frame, got a data frame or silence";
  return {};
}

TEST(Overload, BusyFrameWireRoundTrip) {
  for (const net::BusyReason reason :
       {net::BusyReason::kOverCap, net::BusyReason::kRateLimited,
        net::BusyReason::kDraining}) {
    const net::BusyFrame frame{reason, 1234};
    const Bytes wire = net::encode_busy(frame);
    ASSERT_EQ(wire.size(), 6u);
    const net::BusyFrame back = net::decode_busy(wire);
    EXPECT_EQ(back.reason, reason);
    EXPECT_EQ(back.retry_after_ms, 1234u);
  }

  // Corrupted control payloads must fail as loudly as corrupted data.
  EXPECT_THROW((void)net::decode_busy(Bytes{}), SerializationError);
  EXPECT_THROW((void)net::decode_busy(Bytes(5)), SerializationError);
  Bytes wrong_tag = net::encode_busy({net::BusyReason::kOverCap, 1});
  wrong_tag[0] = 0x00;
  EXPECT_THROW((void)net::decode_busy(wrong_tag), SerializationError);
  Bytes bad_reason = net::encode_busy({net::BusyReason::kOverCap, 1});
  bad_reason[1] = 99;
  EXPECT_THROW((void)net::decode_busy(bad_reason), SerializationError);

  // The typed error carries the frame.
  const net::BusyError error(net::BusyFrame{net::BusyReason::kDraining, 0});
  EXPECT_EQ(error.reason(), net::BusyReason::kDraining);
  EXPECT_EQ(error.retry_after_ms(), 0u);
  EXPECT_NE(std::string(error.what()).find("draining"), std::string::npos);
}

TEST(Overload, StatsSnapshotWireRoundTrip) {
  // DaemonStats is atomics (non-copyable); the snapshot is the plain-value
  // view and what kHealth ships. Distinct values per field catch any
  // encode/decode field swap.
  DaemonStats stats;
  stats.connections_accepted = 101;
  stats.connections_closed = 60;
  stats.connections_reaped = 20;
  stats.connections_failed = 1;
  stats.connections_rejected = 20;
  stats.rejected_over_cap = 11;
  stats.rejected_rate_limited = 6;
  stats.rejected_draining = 3;
  stats.sessions_ok = 500;
  stats.sessions_failed = 7;
  stats.sessions_shed = 9;
  stats.health_probes = 31;
  stats.active_sessions = 4;
  stats.live_connections = 21;
  stats.parked_depth = 15;
  stats.ready_depth = 2;
  stats.parked_peak = 64;
  stats.ready_peak = 8;

  const DaemonStatsSnapshot snap = stats.snapshot();
  EXPECT_TRUE(snap.books_balance());  // 101 == 60 + 20 + 1 + 20

  const Bytes wire = encode_stats(snap);
  ASSERT_EQ(wire.size(), kStatsSnapshotFields * 8);
  const DaemonStatsSnapshot back = decode_stats(wire);
  EXPECT_EQ(encode_stats(back), wire);
  EXPECT_EQ(back.connections_accepted, 101u);
  EXPECT_EQ(back.rejected_rate_limited, 6u);
  EXPECT_EQ(back.sessions_shed, 9u);
  EXPECT_EQ(back.ready_peak, 8u);

  DaemonStatsSnapshot unbalanced = snap;
  unbalanced.connections_closed = 59;
  EXPECT_FALSE(unbalanced.books_balance());

  Bytes truncated = wire;
  truncated.pop_back();
  EXPECT_THROW((void)decode_stats(truncated), SerializationError);
}

TEST(Overload, BackoffScheduleIsSeedReproducible) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.backoff = 10ms;
  policy.backoff_multiplier = 2.0;
  policy.jitter = 0.5;

  // Pure function of (policy, seed, chunk, attempt): replaying a batch's
  // seed replays its exact backoff schedule.
  for (std::size_t chunk = 0; chunk < 4; ++chunk) {
    for (std::size_t attempt = 1; attempt <= 5; ++attempt) {
      EXPECT_EQ(DaemonSet::backoff(policy, 77, chunk, attempt),
                DaemonSet::backoff(policy, 77, chunk, attempt));
    }
  }
  // Different seeds give different jitter somewhere in the schedule.
  bool any_differ = false;
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
    any_differ |= DaemonSet::backoff(policy, 77, 0, attempt) !=
                  DaemonSet::backoff(policy, 78, 0, attempt);
  }
  EXPECT_TRUE(any_differ);
  // Exponential shape survives the jitter: with jitter 0.5, attempt 1 is
  // in [5, 15] ms and attempt 3 in [20, 60] ms — disjoint ranges.
  const auto a1 = DaemonSet::backoff(policy, 77, 1, 1);
  const auto a3 = DaemonSet::backoff(policy, 77, 1, 3);
  EXPECT_GE(a1.count(), 5);
  EXPECT_LE(a1.count(), 15);
  EXPECT_GT(a3, a1);

  // Attempt 0 re-uses the base seed exactly; retries re-randomize.
  EXPECT_EQ(retry_attempt_seed(0xabcd, 0), 0xabcdu);
  EXPECT_NE(retry_attempt_seed(0xabcd, 1), 0xabcdu);

  // Goldens: the schedule and the retry seed are part of a batch's replay
  // contract, so their exact values are pinned.
  const std::int64_t golden_backoff_ms[] = {14, 16, 26, 77, 162};
  for (std::size_t attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_EQ(DaemonSet::backoff(policy, 77, 1, attempt).count(),
              golden_backoff_ms[attempt - 1])
        << "attempt " << attempt;
  }
  EXPECT_EQ(retry_attempt_seed(0xabcd, 1), 0x7f4074b46da03c6cu);
}

TEST(Overload, HasPendingInputSeesBytesAndEof) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  EXPECT_FALSE(has_pending_input(sv[0]));  // nothing written yet
  const std::uint8_t byte = 0x5e;
  ASSERT_EQ(::write(sv[1], &byte, 1), 1);
  EXPECT_TRUE(has_pending_input(sv[0]));  // bytes waiting
  std::uint8_t got = 0;
  ASSERT_EQ(::read(sv[0], &got, 1), 1);
  EXPECT_FALSE(has_pending_input(sv[0]));  // drained again
  ::close(sv[1]);
  EXPECT_TRUE(has_pending_input(sv[0]));  // EOF counts: the worker must
  ::close(sv[0]);                         // see it, not the reaper
}

TEST(Overload, AcceptFloodPastCapShedsWithStructuredBusy) {
  const Scenario& scenario = silent_scenario();
  DaemonOptions options = loopback_options();
  options.max_connections = 2;
  options.busy_retry_after = 40ms;
  Daemon daemon(scenario, options);
  daemon.start();

  // Two holders fill the cap; a health probe each proves they were
  // admitted (not just SYN-accepted by the kernel) before the flood.
  auto holder_a = connect_to(daemon);
  auto holder_b = connect_to(daemon);
  (void)client_health(*holder_a);
  (void)client_health(*holder_b);

  // Flood past the cap: every extra connection gets busy(over-cap) with
  // the configured retry-after hint, never a silent RST.
  constexpr std::size_t kFlood = 4;
  for (std::size_t i = 0; i < kFlood; ++i) {
    auto shed = connect_to(daemon);
    const net::BusyFrame busy = expect_busy(*shed);
    EXPECT_EQ(busy.reason, net::BusyReason::kOverCap);
    EXPECT_EQ(busy.retry_after_ms, 40u);
  }

  // A slot frees up once a holder says goodbye; the next knock is served.
  client_goodbye(*holder_a);
  EXPECT_TRUE(eventually([&] {
    return daemon.stats().live_connections.load() < 2;
  }));
  auto late = connect_to(daemon);
  (void)client_health(*late);
  client_goodbye(*late);
  client_goodbye(*holder_b);

  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= 3;
  }));
  daemon.stop();
  const DaemonStatsSnapshot s = daemon.stats().snapshot();
  EXPECT_EQ(s.connections_accepted, 2 + kFlood + 1);
  EXPECT_EQ(s.connections_rejected, kFlood);
  EXPECT_EQ(s.rejected_over_cap, kFlood);
  EXPECT_EQ(s.rejected_rate_limited, 0u);
  EXPECT_EQ(s.connections_failed, 0u);
  EXPECT_TRUE(s.books_balance())
      << "accepted " << s.connections_accepted << " != closed "
      << s.connections_closed << " + reaped " << s.connections_reaped
      << " + failed " << s.connections_failed << " + rejected "
      << s.connections_rejected;
}

TEST(Overload, AcceptRateTokenBucketSheds) {
  const Scenario& scenario = silent_scenario();
  DaemonOptions options = loopback_options();
  options.accept_rate_per_sec = 0.5;  // one token every two seconds
  options.accept_burst = 1.0;
  Daemon daemon(scenario, options);
  daemon.start();

  // The single burst token admits the first connection...
  auto first = connect_to(daemon);
  (void)client_health(*first);

  // ...and the immediate second knock finds the bucket empty: shed with a
  // positive retry-after (the bucket refills; unlike draining, waiting is
  // worthwhile).
  auto second = connect_to(daemon);
  const net::BusyFrame busy = expect_busy(*second);
  EXPECT_EQ(busy.reason, net::BusyReason::kRateLimited);
  EXPECT_GT(busy.retry_after_ms, 0u);

  client_goodbye(*first);
  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= 1;
  }));
  daemon.stop();
  const DaemonStatsSnapshot s = daemon.stats().snapshot();
  EXPECT_EQ(s.connections_accepted, 2u);
  EXPECT_EQ(s.rejected_rate_limited, 1u);
  EXPECT_TRUE(s.books_balance());
}

TEST(Overload, HealthProbeReportsLiveCounters) {
  const Scenario& scenario = silent_scenario();
  Daemon daemon(scenario, loopback_options());
  daemon.start();

  auto channel = connect_to(daemon);
  Rng rng(42);
  core::OtBundle ot(scenario.config, rng);
  const std::vector<std::vector<double>> samples(scenario.queries.begin(),
                                                 scenario.queries.begin() + 2);
  const std::vector<int> labels =
      client_classify(*channel, scenario, samples, rng, &ot);
  ASSERT_EQ(labels.size(), samples.size());

  const DaemonStatsSnapshot s = client_health(*channel);
  EXPECT_EQ(s.connections_accepted, 1u);
  EXPECT_EQ(s.sessions_ok, 1u);  // health probes are not protocol sessions
  EXPECT_EQ(s.sessions_failed, 0u);
  EXPECT_EQ(s.health_probes, 1u);
  EXPECT_EQ(s.live_connections, 1u);
  // The probe itself is being served right now, on this very connection.
  EXPECT_EQ(s.active_sessions, 1u);
  EXPECT_GE(s.ready_peak, 1u);

  // Probes are cheap and repeatable on the keep-alive connection.
  const DaemonStatsSnapshot again = client_health(*channel);
  EXPECT_EQ(again.health_probes, 2u);
  EXPECT_EQ(again.sessions_ok, 1u);

  client_goodbye(*channel);
  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= 1;
  }));
  daemon.stop();
  EXPECT_TRUE(daemon.stats().snapshot().books_balance());
}

TEST(Overload, BoundedReadyQueueServesReadableIdleCrossers) {
  // workers=1 and max_ready=1: while one slow session holds the only
  // worker, at most ONE connection may be promoted ahead; the rest wait
  // parked even though they are readable. A parked-but-readable connection
  // crossing idle_timeout is EXACTLY the reap race — the readability
  // re-check must route it to a worker, not the reaper.
  const Scenario& scenario = silent_scenario();
  DaemonOptions options = loopback_options();
  options.workers = 1;
  options.max_ready = 1;
  options.idle_timeout = 40ms;
  options.poll_slice = 10ms;
  Daemon daemon(scenario, options);
  daemon.start();

  // Occupy the only worker with a real classification session.
  std::thread busy_client([&] {
    auto channel = connect_to(daemon);
    Rng rng(42);
    core::OtBundle ot(scenario.config, rng);
    const std::vector<std::vector<double>> samples(
        scenario.queries.begin(), scenario.queries.begin() + 8);
    const std::vector<int> labels =
        client_classify(*channel, scenario, samples, rng, &ot);
    EXPECT_EQ(labels.size(), samples.size());
    client_goodbye(*channel);
  });
  std::this_thread::sleep_for(20ms);  // let the session start

  // Two probes queue up behind it; with max_ready=1 one of them sits
  // parked-and-readable past idle_timeout while the worker grinds.
  std::atomic<std::size_t> served{0};
  std::vector<std::thread> probes;
  for (int i = 0; i < 2; ++i) {
    probes.emplace_back([&] {
      auto channel = connect_to(daemon);
      (void)client_health(*channel);
      served.fetch_add(1);
      client_goodbye(*channel);
    });
  }
  busy_client.join();
  for (std::thread& t : probes) t.join();
  EXPECT_EQ(served.load(), 2u);

  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= 3;
  }));
  daemon.stop();
  const DaemonStatsSnapshot s = daemon.stats().snapshot();
  // The regression pin: nobody readable was reaped, and the ready queue
  // never exceeded its bound.
  EXPECT_EQ(s.connections_reaped, 0u);
  EXPECT_LE(s.ready_peak, 1u);
  EXPECT_TRUE(s.books_balance());
}

TEST(Overload, StalledClientFreesTheWorkerViaRecvTimeout) {
  // A client that selects a service and then goes silent (the SIGSTOP-
  // style stall) must not wedge the daemon: the per-recv deadline frees
  // the worker, the stall is counted as a failed session, and the next
  // client is served.
  const Scenario& scenario = silent_scenario();
  DaemonOptions options = loopback_options();
  options.workers = 1;
  options.recv_timeout = 150ms;
  options.poll_slice = 10ms;
  Daemon daemon(scenario, options);
  daemon.start();

  auto stalled = connect_to(daemon);
  stalled->send(Bytes{static_cast<std::uint8_t>(Service::kClassification)});
  // ...and nothing more: the sole worker is now stuck in the handshake
  // recv until the deadline frees it.

  auto healthy = connect_to(daemon);
  const DaemonStatsSnapshot s = client_health(*healthy);
  EXPECT_GE(s.connections_accepted, 2u);
  ASSERT_TRUE(eventually([&] {
    return daemon.stats().sessions_failed.load() >= 1;
  })) << "the stalled session never timed out";
  // The daemon closed the stalled connection on the failure path.
  EXPECT_THROW((void)stalled->recv(net::Deadline::after(5000ms)),
               ProtocolError);

  client_goodbye(*healthy);
  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= 1;
  }));
  daemon.stop();
  const DaemonStatsSnapshot after = daemon.stats().snapshot();
  EXPECT_EQ(after.sessions_failed, 1u);
  EXPECT_EQ(after.connections_failed, 1u);
  EXPECT_TRUE(after.books_balance());
}

TEST(Overload, DrainShedsWithBusyAndBooksBalance) {
  // The SIGTERM window: stop() first DRAINS — parked service selects and
  // new accepts are answered busy(draining) with retry_after 0 ("fail
  // over, I am going away"), goodbyes are still honored, and the books
  // balance exactly when the daemon exits.
  const Scenario& scenario = silent_scenario();
  DaemonOptions options = loopback_options();
  options.drain_grace = 5000ms;
  options.poll_slice = 10ms;
  Daemon daemon(scenario, options);
  daemon.start();

  // One admitted keep-alive connection (a completed session, then parked)
  // keeps the drain window open.
  auto parked = connect_to(daemon);
  Rng rng(42);
  core::OtBundle ot(scenario.config, rng);
  const std::vector<int> labels = client_classify(
      *parked, scenario, {scenario.queries.front()}, rng, &ot);
  ASSERT_EQ(labels.size(), 1u);

  std::thread stopper([&] { daemon.stop(); });
  ASSERT_TRUE(eventually([&] { return daemon.draining(); }));

  // A NEW connection during the drain is shed at the accept...
  auto refused = net::socket_connect(daemon.address(), {},
                                     net::Deadline::after(10000ms));
  const net::BusyFrame at_accept = expect_busy(*refused);
  EXPECT_EQ(at_accept.reason, net::BusyReason::kDraining);
  EXPECT_EQ(at_accept.retry_after_ms, 0u);

  // ...and the PARKED connection's next service select is shed in the
  // worker, with the same structured answer.
  parked->send(Bytes{static_cast<std::uint8_t>(Service::kClassification)});
  const net::BusyFrame at_select = expect_busy(*parked);
  EXPECT_EQ(at_select.reason, net::BusyReason::kDraining);
  EXPECT_EQ(at_select.retry_after_ms, 0u);

  stopper.join();
  const DaemonStatsSnapshot s = daemon.stats().snapshot();
  EXPECT_EQ(s.connections_accepted, 2u);
  EXPECT_EQ(s.sessions_shed, 1u);
  EXPECT_EQ(s.rejected_draining, 1u);
  EXPECT_EQ(s.sessions_ok, 1u);
  EXPECT_EQ(s.connections_failed, 0u);
  EXPECT_EQ(s.live_connections, 0u);
  EXPECT_TRUE(s.books_balance())
      << "accepted " << s.connections_accepted << " != closed "
      << s.connections_closed << " + reaped " << s.connections_reaped
      << " + failed " << s.connections_failed << " + rejected "
      << s.connections_rejected;
}

TEST(ChaosDaemon, FailoverCompletesWhenAReplicaDiesMidBatch) {
  // The acceptance bar for the failover layer: a sharded batch against two
  // replicas finishes — with IDENTICAL labels — when one replica is killed
  // (SIGTERM drain) partway through, and the abort audit stays clean.
  const Scenario& scenario = silent_scenario();
  constexpr std::uint64_t kSeed = 77;
  constexpr std::size_t kSamples = 40;
  std::vector<std::vector<double>> samples;
  samples.reserve(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    samples.push_back(scenario.queries[i % scenario.queries.size()]);
  }
  DaemonSetOptions set_options;
  set_options.chunk_size = 4;

  const auto& audit = crypto::ot_abort_audit();
  const std::uint64_t aborts_before = audit.aborts.load();
  const std::uint64_t wiped_before = audit.wiped.load();

  Daemon daemon_a(scenario, loopback_options());
  daemon_a.start();

  // Baseline: the whole batch against replica A alone.
  std::vector<int> baseline;
  {
    DaemonSet solo(scenario, {daemon_a.address()}, set_options);
    baseline = solo.classify(samples, kSeed);
  }
  ASSERT_EQ(baseline.size(), kSamples);

  // Chaos run: both replicas serve; B is killed mid-batch.
  auto daemon_b = std::make_unique<Daemon>(scenario, loopback_options());
  daemon_b->start();
  DaemonSet fleet(scenario, {daemon_a.address(), daemon_b->address()},
                  set_options);
  auto batch = std::async(std::launch::async,
                          [&] { return fleet.classify(samples, kSeed); });
  std::this_thread::sleep_for(150ms);
  daemon_b->stop();  // drain: in-flight chunks finish, the rest are shed
  const std::vector<int> labels = batch.get();
  daemon_b.reset();

  // Bit-reproducible despite the kill: chunk boundaries and per-chunk
  // client randomness never depended on which replica served what, and
  // labels are randomness-invariant.
  EXPECT_EQ(labels, baseline);
  EXPECT_EQ(fleet.stats().chunks_ok.load(), kSamples / 4);

  // Every abort the kill provoked wiped its pads.
  EXPECT_EQ(audit.aborts.load() - aborts_before,
            audit.wiped.load() - wiped_before)
      << "an OT abort left pad material unwiped";

  daemon_a.stop();
  EXPECT_TRUE(daemon_a.stats().snapshot().books_balance());
}

TEST(ChaosDaemon, FailoverSkipsDeadReplicaInTheSet) {
  // One address in the set never answers (its listener is gone): connects
  // are refused, the worker counts the failures, gives the replica up, and
  // the live replica finishes the whole batch.
  const Scenario& scenario = silent_scenario();
  net::SocketAddress dead;
  {
    net::SocketListener ghost(net::SocketAddress::tcp("127.0.0.1", 0));
    dead = ghost.address();
  }  // closed: connecting to this port is refused

  Daemon daemon(scenario, loopback_options());
  daemon.start();

  constexpr std::uint64_t kSeed = 91;
  constexpr std::size_t kSamples = 32;
  std::vector<std::vector<double>> samples;
  samples.reserve(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    samples.push_back(scenario.queries[i % scenario.queries.size()]);
  }
  DaemonSetOptions set_options;
  set_options.chunk_size = 4;
  set_options.connect_timeout = 1000ms;

  DaemonSet solo(scenario, {daemon.address()}, set_options);
  const std::vector<int> baseline = solo.classify(samples, kSeed);

  DaemonSet fleet(scenario, {dead, daemon.address()}, set_options);
  const std::vector<int> labels = fleet.classify(samples, kSeed);
  EXPECT_EQ(labels, baseline);
  EXPECT_EQ(fleet.stats().chunks_ok.load(), kSamples / 4);
  EXPECT_GE(fleet.stats().attempts_failed.load(), 1u);
  EXPECT_GE(fleet.stats().chunk_retries.load(), 1u);

  daemon.stop();
  EXPECT_TRUE(daemon.stats().snapshot().books_balance());
}

TEST(ChaosDaemon, ChurnStormOverSilentConnectionsKeepsTheWipeAudit) {
  // Connection churn against a silent daemon: every round one
  // client completes a session and says goodbye while another vanishes
  // mid-protocol (forcing an abort of its persistent silent OT state, pads
  // and all). The daemon must survive the storm with every abort wiped,
  // serve a clean session afterwards, and balance its books.
  const Scenario& scenario = silent_scenario();
  DaemonOptions options = loopback_options();
  options.workers = 2;
  options.poll_slice = 10ms;
  Daemon daemon(scenario, options);
  daemon.start();

  const auto& audit = crypto::ot_abort_audit();
  const std::uint64_t aborts_before = audit.aborts.load();
  const std::uint64_t wiped_before = audit.wiped.load();
  const std::uint64_t frontier_before = audit.frontier_wipes.load();

  constexpr std::size_t kRounds = 6;
  const crypto::Digest digest =
      core::protocol_digest(scenario.profile, scenario.config);
  for (std::size_t round = 0; round < kRounds; ++round) {
    // The completer: one clean silent session, then goodbye.
    std::thread completer([&, round] {
      auto channel = connect_to(daemon);
      Rng rng(3000 + round);
      core::OtBundle ot(scenario.config, rng);
      const std::vector<int> labels = client_classify(
          *channel, scenario, {scenario.queries.front()}, rng, &ot);
      EXPECT_EQ(labels.size(), 1u);
      client_goodbye(*channel);
    });
    // The vanisher: handshake, then gone mid-protocol.
    {
      auto channel = connect_to(daemon);
      channel->send(
          Bytes{static_cast<std::uint8_t>(Service::kClassification)});
      channel->set_stage(net::Stage::kHandshake);
      ByteWriter hello;
      const std::uint8_t magic[4] = {'P', 'P', 'D', 'S'};
      hello.raw(std::span<const std::uint8_t>(magic, 4));
      hello.u32(3);  // protocol version
      hello.raw(std::span<const std::uint8_t>(digest.data(), digest.size()));
      hello.u64(0x1000 + round);  // session id
      hello.u64(4);               // query count
      channel->send(hello.take());
      const Bytes ack = channel->recv(net::Deadline::after(10000ms));
      ASSERT_GE(ack.size(), 1u);
      ASSERT_EQ(ack[0], 1u) << "handshake denied";
      channel->close();  // vanish
    }
    completer.join();
  }

  ASSERT_TRUE(eventually([&] {
    return daemon.stats().sessions_failed.load() >= kRounds;
  })) << "vanished sessions were not all counted";

  // Every churn abort wiped its pads and its PPRF frontier.
  const std::uint64_t aborts_delta = audit.aborts.load() - aborts_before;
  EXPECT_GE(aborts_delta, kRounds);
  EXPECT_EQ(audit.wiped.load() - wiped_before, aborts_delta)
      << "an OT abort left pad material unwiped";
  EXPECT_EQ(audit.frontier_wipes.load() - frontier_before, aborts_delta)
      << "an abort left PPRF frontier seeds unwiped";

  // The storm is over; the daemon still serves.
  auto channel = connect_to(daemon);
  Rng rng(9001);
  core::OtBundle ot(scenario.config, rng);
  const std::vector<int> labels = client_classify(
      *channel, scenario, {scenario.queries.front()}, rng, &ot);
  EXPECT_EQ(labels.size(), 1u);
  client_goodbye(*channel);

  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= kRounds + 1;
  }));
  daemon.stop();
  const DaemonStatsSnapshot s = daemon.stats().snapshot();
  EXPECT_EQ(s.sessions_ok, kRounds + 1);
  EXPECT_EQ(s.sessions_failed, kRounds);
  EXPECT_TRUE(s.books_balance());
}

}  // namespace
}  // namespace ppds::server
