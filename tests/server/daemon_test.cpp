#include "ppds/server/daemon.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ppds/common/bytes.hpp"
#include "ppds/common/hex.hpp"
#include "ppds/core/session.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/crypto/silent_ot.hpp"
#include "ppds/net/socket.hpp"
#include "ppds/server/client.hpp"
#include "../support/hashing_endpoint.hpp"

/// \file daemon_test.cpp
/// The ppdsd daemon end to end over real sockets: session multiplexing
/// (many keep-alive connections over few workers), bit-identical transcripts
/// against the in-process session layer, the disconnect-mid-protocol
/// abort-and-wipe guarantee (crypto::ot_abort_audit), idle reaping, and
/// graceful drain accounting.

namespace ppds::server {
namespace {

using namespace std::chrono_literals;

/// Scenario construction trains two SVMs (~a second); share one per preset
/// across the suite.
const Scenario& private_scenario() {
  static const Scenario s = Scenario::make("diabetes:linear:silent", 2029);
  return s;
}

DaemonOptions loopback_options() {
  DaemonOptions options;
  options.address = net::SocketAddress::tcp("127.0.0.1", 0);
  options.recv_timeout = 60000ms;
  options.idle_timeout = 60000ms;
  options.poll_slice = 50ms;
  return options;
}

std::unique_ptr<net::SocketEndpoint> connect_to(const Daemon& daemon) {
  auto channel =
      net::socket_connect(daemon.address(), {}, net::Deadline::after(10000ms));
  channel->set_recv_deadline(net::Deadline::after(120000ms));
  return channel;
}

/// Spins until \p done() or the deadline; the daemon's counters update
/// asynchronously to the client's view of the socket.
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

TEST(ScenarioSpec, SilentTokenRoundTripsAndReservoirIsUnknown) {
  const ScenarioSpec spec = ScenarioSpec::parse("diabetes:poly:silent");
  EXPECT_EQ(spec.preset, ScenarioSpec::Preset::kSilent);
  EXPECT_EQ(spec.to_string(), "diabetes:poly:silent");

  // Silent is the q=4, k=2 shape.
  const Scenario s = Scenario::make(spec, 1);
  EXPECT_EQ(s.config.ompe.q, 4u);
  EXPECT_EQ(s.config.ompe.k, 2u);

  // `reservoir` is not a spec token.
  EXPECT_THROW(ScenarioSpec::parse("diabetes:linear:silent:reservoir"),
               InvalidArgument);

  EXPECT_THROW(ScenarioSpec::parse("diabetes:resevoir"), InvalidArgument);
  // The refill batch is a protocol-side constant, not a spec token.
  EXPECT_THROW(ScenarioSpec::parse("diabetes:refill=32"), InvalidArgument);
  // The deleted DH-pool preset is gone, not silently mapped elsewhere.
  EXPECT_THROW(ScenarioSpec::parse("diabetes:precomputed"), InvalidArgument);
  // A second kernel or preset token is an error, never an override.
  EXPECT_THROW(ScenarioSpec::parse("diabetes:linear:poly"), InvalidArgument);
  EXPECT_THROW(ScenarioSpec::parse("diabetes:secure:secure"),
               InvalidArgument);
  EXPECT_THROW(ScenarioSpec::parse("diabetes:silent:silent"),
               InvalidArgument);
}

TEST(ScenarioSpec, NoPresetTokenIsPrivate) {
  // A spec without a preset token is the silent preset.
  const ScenarioSpec spec = ScenarioSpec::parse("diabetes:linear");
  EXPECT_EQ(spec.preset, ScenarioSpec::Preset::kSilent);
  EXPECT_EQ(spec.to_string(), "diabetes:linear:silent");
  EXPECT_EQ(ScenarioSpec::parse("diabetes").preset,
            ScenarioSpec::Preset::kSilent);
}

TEST(ScenarioSpec, FastPresetIsRejected) {
  // The loopback preset is gone: no spec can ask a daemon for OT without
  // privacy.
  EXPECT_THROW(ScenarioSpec::parse("diabetes:linear:fast"), InvalidArgument);
  EXPECT_THROW(ScenarioSpec::parse("diabetes:fast"), InvalidArgument);
}

TEST(ScenarioSpec, GoldenProtocolDigests) {
  // The handshake identity of every served preset, pinned to recorded
  // values. Local tuning changes must leave these untouched; a change that
  // moves one is a protocol change both parties have to take together.
  // (The secure rows moved when secure became the silent engine at q=8,
  // k=3; the silent rows kept their bytes.)
  struct Golden {
    const char* spec;
    const char* protocol;
    const char* similarity;
  };
  const Golden golden[] = {
      {"diabetes:linear:silent",
       "7723f4a6e30c6ac137ea296e162ce2fec33df8b84b36ee0d8f71e8701136000c",
       "5f4e0c5160cddb89668a28234412263382fe93084b21f74b73fee7444b9f7044"},
      {"diabetes:linear:secure",
       "c087c75c26ea8edf71d6a47a7baa836494669f26bc391f05c74d52ff22b3847d",
       "3fd366b311b15e6cac3039ca02aaea2c092040fed53784358596ce0425db4a87"},
      {"diabetes:poly:silent",
       "10f6c601bd88275b9ee5013d1535037d762489caca0b65eea7902e2eb55612d5",
       "a9abdfa96fe7289db4be8ef780b2286b3d8549b990d56cc0d2c18436dfac40b4"},
      {"diabetes:poly:secure",
       "d207f4d68a749e90bbb6340139d74584484ca9723dacfd39512346751ae6a5bb",
       "3ed1342d41690d89d17f29f5a0b50932e619ce2c15587ec928bd507f5997add6"},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(g.spec);
    const Scenario s = Scenario::make(g.spec, 2029);
    EXPECT_EQ(to_hex(core::protocol_digest(s.profile, s.config)), g.protocol);
    EXPECT_EQ(to_hex(core::similarity_digest(s.server_model.kernel(), s.space,
                                             s.config)),
              g.similarity);
  }
}

using test::HashingEndpoint;

TEST(ScenarioSpec, GoldenSilentClassificationTranscript) {
  // The silent engine's wire bytes, pinned: a seeded in-process
  // classification session at diabetes:linear:silent. Both directions are
  // hashed at the client. A change that moves either value changes what
  // the silent engine puts on the wire.
  const Scenario& s = private_scenario();
  const std::vector<std::vector<double>> samples(s.queries.begin(),
                                                 s.queries.begin() + 3);
  auto [server_end, client_raw] = net::make_channel();
  HashingEndpoint client_end(std::move(client_raw));
  auto server = std::async(std::launch::async, [&, &server_end = server_end] {
    const core::ClassificationServer classification(s.server_model, s.profile,
                                                    s.config);
    Rng rng(0xfeed);
    core::OtBundle ot(s.config, rng);
    core::serve_session(classification, s.profile, s.config, server_end, rng,
                        1 << 20, &ot);
  });
  const core::ClassificationClient client(s.profile, s.config);
  Rng rng(7);
  core::OtBundle ot(s.config, rng);
  const std::vector<int> labels = core::classify_session(
      client, s.profile, s.config, client_end, samples, rng, &ot);
  server.get();

  ASSERT_EQ(labels.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(labels[i], s.server_model.predict(samples[i]));
  }
  EXPECT_EQ(client_end.sent_hex(),
            "b632ee2ad5beb2bc4e5f0934014ca5f158578f6cb938c0dc163b39322343c49c");
  EXPECT_EQ(client_end.received_hex(),
            "d46d6fc6eac1e3dccef18cdcada6c28fc515f6b07b10dc8ea26f0f384a72bb01");
}

TEST(ScenarioSpec, GoldenSilentSimilarityTranscript) {
  // The silent engine's similarity wire bytes, pinned: a seeded in-process
  // similarity session at diabetes:linear:silent, hashed both ways at the
  // client like GoldenSilentClassificationTranscript. The session pays its
  // own seed agreement, as the daemon's similarity service does.
  const Scenario& s = private_scenario();
  auto [server_end, client_raw] = net::make_channel();
  HashingEndpoint client_end(std::move(client_raw));
  auto server = std::async(std::launch::async, [&, &server_end = server_end] {
    const core::SimilarityServer similarity(s.server_model, s.space, s.config);
    Rng rng(0xfeed);
    core::OtBundle ot(s.config, rng);
    core::serve_similarity_session(similarity, s.profile.kernel, s.space,
                                   s.config, server_end, rng, &ot);
  });
  const core::SimilarityClient client(s.client_model, s.space, s.config);
  Rng rng(7);
  core::OtBundle ot(s.config, rng);
  const double t = core::evaluate_similarity_session(
      client, s.profile.kernel, s.space, s.config, client_end, rng, &ot);
  server.get();

  const double plain =
      core::ordinary_similarity(s.client_model, s.server_model, s.space);
  EXPECT_NEAR(t, plain, 1e-6 + 1e-4 * plain);
  EXPECT_EQ(client_end.sent_hex(),
            "7beed401309b6eb599617c9b8c86e3eca55f7b8b3d327a620aca436b1a8ac76e");
  EXPECT_EQ(client_end.received_hex(),
            "f2afe96408654236cd8bee4c0d6af475f86749663c194342d9c18b1681793cda");
}

TEST(ScenarioSpec, GoldenSilentRestageTranscript) {
  // The silent engine's wire bytes across restages, pinned: one persistent
  // OtBundle per side (as ppdsd keeps per connection) carries kSessions
  // one-query sessions over one in-process channel, so the staged ledger
  // runs dry and is restaged several times mid-connection. Both directions
  // are hashed at the client.
  constexpr std::size_t kSessions = 60;
  const Scenario& s = private_scenario();
  const core::OtDemand demand = core::ot_demand_per_query(s.config.ompe);
  ASSERT_GE(kSessions * demand.count,
            2 * crypto::kSilentStageQuantum + crypto::kSilentLeadSlots)
      << "too few sessions to cross two restages";
  auto [server_end, client_raw] = net::make_channel();
  HashingEndpoint client_end(std::move(client_raw));
  auto server = std::async(std::launch::async, [&, &server_end = server_end] {
    const core::ClassificationServer classification(s.server_model, s.profile,
                                                    s.config);
    Rng rng(0xfeed);
    core::OtBundle ot(s.config, rng);
    for (std::size_t i = 0; i < kSessions; ++i) {
      core::serve_session(classification, s.profile, s.config, server_end,
                          rng, 1, &ot);
      server_end.set_stage(net::Stage::kNone);
      server_end.set_session_id(0);
    }
  });
  const core::ClassificationClient client(s.profile, s.config);
  Rng rng(7);
  core::OtBundle ot(s.config, rng);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const std::vector<double>& query = s.queries[i % s.queries.size()];
    const std::vector<int> labels = core::classify_session(
        client, s.profile, s.config, client_end, {query}, rng, &ot);
    ASSERT_EQ(labels.size(), 1u);
    EXPECT_EQ(labels[0], s.server_model.predict(query)) << i;
    client_end.set_stage(net::Stage::kNone);
    client_end.set_session_id(0);
  }
  server.get();

  EXPECT_EQ(client_end.sent_hex(),
            "4f22cb0d6bf5abc05d15cfccdc2c978d628befcf1d26057b9f26eb0c06ca0245");
  EXPECT_EQ(client_end.received_hex(),
            "aaa137d5a91072cb79b6618f48c84c8784aa7ed8361e1cec752354b2d64e46cc");
}

TEST(Daemon, ServesClassificationAndSimilarityOverTcpLoopback) {
  const Scenario& scenario = private_scenario();
  Daemon daemon(scenario, loopback_options());
  daemon.start();

  auto channel = connect_to(daemon);
  Rng rng(42);
  core::OtBundle ot(scenario.config, rng);
  const std::vector<std::vector<double>> samples(scenario.queries.begin(),
                                                 scenario.queries.begin() + 4);
  const std::vector<int> labels =
      client_classify(*channel, scenario, samples, rng, &ot);
  ASSERT_EQ(labels.size(), samples.size());
  for (int label : labels) EXPECT_TRUE(label == 1 || label == -1);

  // Keep-alive: a second session runs on the SAME connection.
  const double t = client_similarity(*channel, scenario, rng);
  const double plain = core::ordinary_similarity(
      scenario.client_model, scenario.server_model, scenario.space);
  EXPECT_NEAR(t, plain, 1e-6 + 1e-4 * plain);
  client_goodbye(*channel);

  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= 1;
  }));
  daemon.stop();
  EXPECT_EQ(daemon.stats().connections_accepted.load(), 1u);
  EXPECT_EQ(daemon.stats().sessions_ok.load(), 2u);
  EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);
}

TEST(Daemon, SocketTranscriptsBitIdenticalToInProcessPath) {
  // The acceptance bar for the whole subsystem: one sequential client
  // against ppdsd produces byte-for-byte the payload schedule of the
  // in-process session layer. Server randomness is pinned by construction
  // (connection 0 draws Rng(splitmix64(rng_seed, 0))); the client uses the
  // same seed on both transports; transcript digests fold every payload.
  const Scenario& scenario = private_scenario();
  constexpr std::uint64_t kServerSeed = 0xfeed;
  constexpr std::uint64_t kClientSeed = 7;
  const std::vector<std::vector<double>> samples(scenario.queries.begin(),
                                                 scenario.queries.begin() + 3);

  struct RunResult {
    std::vector<int> labels;
    double t = 0.0;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  };
  const auto run_client = [&](net::Endpoint& channel) {
    channel.enable_transcript(true);
    Rng rng(kClientSeed);
    core::OtBundle ot(scenario.config, rng);
    RunResult result;
    result.labels = client_classify(channel, scenario, samples, rng, &ot);
    result.t = client_similarity(channel, scenario, rng);
    client_goodbye(channel);
    result.sent = channel.sent_transcript();
    result.received = channel.recv_transcript();
    return result;
  };

  // Socket path: a real daemon, one connection.
  DaemonOptions options = loopback_options();
  options.rng_seed = kServerSeed;
  Daemon daemon(scenario, options);
  daemon.start();
  auto channel = connect_to(daemon);
  const RunResult over_socket = run_client(*channel);
  channel.reset();
  daemon.stop();

  // In-process path: the same session schedule over simulated queues, with
  // the daemon's per-connection dispatch loop replicated verbatim.
  auto [server_end, client_end] = net::make_channel();
  auto server = std::async(std::launch::async, [&, &server_end = server_end] {
    core::ClassificationServer classification(scenario.server_model,
                                              scenario.profile,
                                              scenario.config);
    core::SimilarityServer similarity(scenario.server_model, scenario.space,
                                      scenario.config);
    Rng rng(splitmix64(kServerSeed, 0));
    // One bundle per connection for classification, one per session for
    // similarity, as the daemon keeps them.
    core::OtBundle ot(scenario.config, rng);
    for (;;) {
      const Bytes select = server_end.recv();
      ASSERT_EQ(select.size(), 1u);
      const auto service = static_cast<Service>(select[0]);
      if (service == Service::kGoodbye) return;
      if (service == Service::kClassification) {
        core::serve_session(classification, scenario.profile, scenario.config,
                            server_end, rng, DaemonOptions{}.max_queries, &ot);
      } else {
        core::OtBundle session_ot(scenario.config, rng);
        core::serve_similarity_session(similarity, scenario.profile.kernel,
                                       scenario.space, scenario.config,
                                       server_end, rng, &session_ot);
      }
      server_end.set_stage(net::Stage::kNone);
      server_end.set_session_id(0);
    }
  });
  const RunResult in_process = run_client(client_end);
  server.get();

  EXPECT_EQ(over_socket.labels, in_process.labels);
  EXPECT_EQ(over_socket.t, in_process.t);  // exact, not approximate
  EXPECT_EQ(over_socket.sent, in_process.sent);
  EXPECT_EQ(over_socket.received, in_process.received);
  EXPECT_NE(over_socket.sent, 0u);
  EXPECT_NE(over_socket.received, 0u);
}

TEST(Daemon, Multiplexes64ConcurrentConnectionsOverEightWorkers) {
  // 64 keep-alive clients, 8 workers: every connection runs two sessions
  // with a park/re-promote gap in between, so workers MUST hand
  // connections back between sessions — 64 blocked threads would deadlock
  // a thread-per-connection design with this worker budget.
  const Scenario& scenario = private_scenario();
  DaemonOptions options = loopback_options();
  options.workers = 8;
  Daemon daemon(scenario, options);
  daemon.start();

  constexpr std::size_t kClients = 64;
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto channel = connect_to(daemon);
      Rng rng(1000 + i);
      core::OtBundle ot(scenario.config, rng);
      const std::vector<std::vector<double>> sample = {
          scenario.queries[i % scenario.queries.size()]};
      const std::vector<int> first =
          client_classify(*channel, scenario, sample, rng, &ot);
      std::this_thread::sleep_for(20ms);  // parked, not worker-pinned
      const std::vector<int> second =
          client_classify(*channel, scenario, sample, rng, &ot);
      client_goodbye(*channel);
      if (first.size() == 1 && second.size() == 1) ok.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients);

  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= kClients;
  }));
  daemon.stop();
  EXPECT_EQ(daemon.stats().connections_accepted.load(), kClients);
  EXPECT_EQ(daemon.stats().sessions_ok.load(), 2 * kClients);
  EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);
  EXPECT_EQ(daemon.stats().active_sessions.load(), 0u);
}

TEST(Daemon, DisconnectMidProtocolWipesOtPoolsAndFreesTheWorker) {
  // A client that completes the handshake and VANISHES: the serve() unwind
  // must abort-and-wipe the OT engines (audited process-wide by
  // crypto::ot_abort_audit — every abort must observe wiped pads), count
  // one failed session, and leave the worker serving the next client.
  const Scenario& scenario = private_scenario();
  DaemonOptions options = loopback_options();
  options.workers = 1;  // the surviving worker IS the disconnected one
  Daemon daemon(scenario, options);
  daemon.start();

  const auto& audit = crypto::ot_abort_audit();
  const std::uint64_t aborts_before = audit.aborts.load();
  const std::uint64_t wiped_before = audit.wiped.load();

  {
    auto channel = connect_to(daemon);
    // Service select + handshake, by hand (the real client helpers would
    // run the whole session; the point is to stop right before the OT
    // phase so the server is provably mid-protocol when the peer dies).
    channel->send(Bytes{
        static_cast<std::uint8_t>(Service::kClassification)});
    channel->set_stage(net::Stage::kHandshake);
    const crypto::Digest digest =
        core::protocol_digest(scenario.profile, scenario.config);
    ByteWriter hello;
    const std::uint8_t magic[4] = {'P', 'P', 'D', 'S'};
    hello.raw(std::span<const std::uint8_t>(magic, 4));
    hello.u32(3);  // protocol version
    hello.raw(std::span<const std::uint8_t>(digest.data(), digest.size()));
    hello.u64(0x5e55);  // session id
    hello.u64(4);       // query count
    channel->send(hello.take());
    const Bytes ack = channel->recv(net::Deadline::after(10000ms));
    ASSERT_GE(ack.size(), 1u);
    ASSERT_EQ(ack[0], 1u) << "handshake denied";
    // The server is now entering its OT phase. Vanish.
    channel->close();
  }

  ASSERT_TRUE(eventually([&] {
    return daemon.stats().sessions_failed.load() >= 1;
  }));
  ASSERT_TRUE(eventually([&] { return audit.aborts.load() > aborts_before; }));
  const std::uint64_t aborts_delta = audit.aborts.load() - aborts_before;
  const std::uint64_t wiped_delta = audit.wiped.load() - wiped_before;
  EXPECT_GE(aborts_delta, 1u);
  EXPECT_EQ(wiped_delta, aborts_delta)
      << "an OT abort left pad material unwiped";

  // The sole worker survived: a well-behaved client is served next.
  auto channel = connect_to(daemon);
  Rng rng(9);
  core::OtBundle ot(scenario.config, rng);
  const std::vector<int> labels = client_classify(
      *channel, scenario, {scenario.queries.front()}, rng, &ot);
  EXPECT_EQ(labels.size(), 1u);
  client_goodbye(*channel);
  daemon.stop();
  EXPECT_EQ(daemon.stats().sessions_ok.load(), 1u);
  EXPECT_EQ(daemon.stats().sessions_failed.load(), 1u);
}

TEST(Daemon, SilentKeepAliveReusesTheSeedAgreement) {
  // Silent scenario: one connection runs several classification sessions;
  // the base-OT seed agreement happens ONCE per direction on the first
  // session (persistent per-connection OtBundle on both ends), and the
  // second session, after a parked gap, reuses it.
  const Scenario& scenario = private_scenario();
  Daemon daemon(scenario, loopback_options());
  daemon.start();

  auto channel = connect_to(daemon);
  Rng rng(21);
  core::OtBundle ot(scenario.config, rng);

  const std::vector<std::vector<double>> samples(scenario.queries.begin(),
                                                 scenario.queries.begin() + 2);
  const std::vector<int> first =
      client_classify(*channel, scenario, samples, rng, &ot);
  ASSERT_EQ(first.size(), samples.size());
  std::this_thread::sleep_for(50ms);  // parked between the sessions
  const std::vector<int> second =
      client_classify(*channel, scenario, samples, rng, &ot);
  EXPECT_EQ(second, first);  // sign(d(t~)) is randomness-invariant
  for (int label : first) EXPECT_TRUE(label == 1 || label == -1);
  client_goodbye(*channel);

  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= 1;
  }));
  daemon.stop();
  EXPECT_EQ(daemon.stats().sessions_ok.load(), 2u);
  EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);
}

TEST(Daemon, ClientClassifyRequiresTheConnectionBundle) {
  // ppdsd keeps one OtBundle per connection, so a client session without
  // its own connection-long bundle would start a second seed agreement
  // against an already-seeded server engine. The call is refused before
  // the select byte goes out, and the connection stays usable.
  const Scenario& scenario = private_scenario();
  Daemon daemon(scenario, loopback_options());
  daemon.start();

  auto channel = connect_to(daemon);
  Rng rng(27);
  const std::vector<std::vector<double>> samples = {scenario.queries.front()};
  EXPECT_THROW((void)client_classify(*channel, scenario, samples, rng, nullptr),
               InvalidArgument);
  core::OtBundle ot(scenario.config, rng);
  for (int session = 0; session < 2; ++session) {
    const std::vector<int> labels =
        client_classify(*channel, scenario, samples, rng, &ot);
    ASSERT_EQ(labels.size(), 1u);
    EXPECT_EQ(labels[0], scenario.server_model.predict(samples[0]));
  }
  client_goodbye(*channel);

  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= 1;
  }));
  daemon.stop();
  EXPECT_EQ(daemon.stats().sessions_ok.load(), 2u);
  EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);
}

TEST(Daemon, SilentDisconnectAbortsWipeFrontierAndPads) {
  // The silent flavor of the disconnect guarantee: the vanished peer's
  // unwind must abort the persistent bundle, and the audit must prove every
  // abort wiped both the PPRF frontier seeds and the staged and unconsumed
  // pads.
  const Scenario& scenario = private_scenario();
  DaemonOptions options = loopback_options();
  options.workers = 1;
  Daemon daemon(scenario, options);
  daemon.start();

  const auto& audit = crypto::ot_abort_audit();
  const std::uint64_t aborts_before = audit.aborts.load();
  const std::uint64_t wiped_before = audit.wiped.load();
  const std::uint64_t frontier_before = audit.frontier_wipes.load();

  {
    auto channel = connect_to(daemon);
    channel->send(Bytes{
        static_cast<std::uint8_t>(Service::kClassification)});
    channel->set_stage(net::Stage::kHandshake);
    const crypto::Digest digest =
        core::protocol_digest(scenario.profile, scenario.config);
    ByteWriter hello;
    const std::uint8_t magic[4] = {'P', 'P', 'D', 'S'};
    hello.raw(std::span<const std::uint8_t>(magic, 4));
    hello.u32(3);  // protocol version
    hello.raw(std::span<const std::uint8_t>(digest.data(), digest.size()));
    hello.u64(0x51e7);  // session id
    hello.u64(4);       // query count
    channel->send(hello.take());
    const Bytes ack = channel->recv(net::Deadline::after(10000ms));
    ASSERT_GE(ack.size(), 1u);
    ASSERT_EQ(ack[0], 1u) << "handshake denied";
    channel->close();  // vanish mid-protocol
  }

  ASSERT_TRUE(eventually([&] {
    return daemon.stats().sessions_failed.load() >= 1;
  }));
  ASSERT_TRUE(eventually([&] { return audit.aborts.load() > aborts_before; }));
  const std::uint64_t aborts_delta = audit.aborts.load() - aborts_before;
  EXPECT_GE(aborts_delta, 1u);
  EXPECT_EQ(audit.wiped.load() - wiped_before, aborts_delta)
      << "an OT abort left staged/expanded pads unwiped";
  // Every aborted engine here is a silent one, so the frontier wipe proof
  // must track the abort count exactly.
  EXPECT_EQ(audit.frontier_wipes.load() - frontier_before, aborts_delta)
      << "an abort left PPRF frontier seeds unwiped";

  // The worker survived the abort.
  auto channel = connect_to(daemon);
  Rng rng(23);
  core::OtBundle ot(scenario.config, rng);
  const std::vector<int> labels = client_classify(
      *channel, scenario, {scenario.queries.front()}, rng, &ot);
  EXPECT_EQ(labels.size(), 1u);
  client_goodbye(*channel);
  daemon.stop();
  EXPECT_EQ(daemon.stats().sessions_ok.load(), 1u);
  EXPECT_EQ(daemon.stats().sessions_failed.load(), 1u);
}

TEST(Daemon, ServesClassificationAboveTheSimilarityDimensionBound) {
  // ionosphere has 34 features; the similarity service's boundary
  // enumeration refuses more than 20. The daemon must still serve
  // classification, and fail only the similarity session, closed.
  const Scenario scenario = Scenario::make("ionosphere:linear:silent", 2029);
  ASSERT_GT(scenario.dataset.dim, 20u);
  Daemon daemon(scenario, loopback_options());
  daemon.start();

  auto channel = connect_to(daemon);
  Rng rng(31);
  core::OtBundle ot(scenario.config, rng);
  const std::vector<std::vector<double>> samples(scenario.queries.begin(),
                                                 scenario.queries.begin() + 4);
  const auto expect_plain_labels = [&](const std::vector<int>& labels) {
    ASSERT_EQ(labels.size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(labels[i], scenario.server_model.predict(samples[i])) << i;
    }
  };
  expect_plain_labels(client_classify(*channel, scenario, samples, rng, &ot));

  {
    // A similarity session on a second connection: the daemon cannot build
    // the service, so it fails the session and closes the connection.
    auto doomed = connect_to(daemon);
    doomed->send(Bytes{static_cast<std::uint8_t>(Service::kSimilarity)});
    try {
      (void)doomed->recv(net::Deadline::after(10000ms));
      ADD_FAILURE() << "the daemon answered a similarity session it cannot "
                       "serve";
    } catch (const TimeoutError&) {
      ADD_FAILURE() << "the daemon left the failed connection open";
    } catch (const ProtocolError&) {
      // closed by peer: the session failed closed
    }
  }
  ASSERT_TRUE(eventually([&] {
    return daemon.stats().sessions_failed.load() >= 1;
  }));

  // The classification connection keeps working.
  expect_plain_labels(client_classify(*channel, scenario, samples, rng, &ot));
  client_goodbye(*channel);

  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= 1;
  }));
  daemon.stop();
  const DaemonStatsSnapshot s = daemon.stats().snapshot();
  EXPECT_EQ(s.sessions_ok, 2u);
  EXPECT_EQ(s.sessions_failed, 1u);
  EXPECT_EQ(s.connections_failed, 1u);
  EXPECT_EQ(s.connections_closed, 1u);
  EXPECT_TRUE(s.books_balance());
}

TEST(Daemon, ReapsIdleConnections) {
  const Scenario& scenario = private_scenario();
  DaemonOptions options = loopback_options();
  options.idle_timeout = 100ms;
  options.poll_slice = 25ms;
  Daemon daemon(scenario, options);
  daemon.start();

  auto channel = connect_to(daemon);
  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_reaped.load() >= 1;
  })) << "idle connection was never reaped";
  // The reap closed the server end: the client sees EOF, not silence.
  EXPECT_THROW((void)channel->recv(net::Deadline::after(5000ms)),
               ProtocolError);
  daemon.stop();
  EXPECT_EQ(daemon.stats().connections_reaped.load(), 1u);
}

TEST(Daemon, ServesOverUnixSocketAndStopIsIdempotent) {
  const Scenario& scenario = private_scenario();
  DaemonOptions options = loopback_options();
  options.address = net::SocketAddress::unix_path(
      "/tmp/ppdsd_test_" + std::to_string(::getpid()) + ".sock");
  Daemon daemon(scenario, options);
  daemon.start();

  auto channel = connect_to(daemon);
  Rng rng(11);
  core::OtBundle ot(scenario.config, rng);
  const std::vector<int> labels = client_classify(
      *channel, scenario, {scenario.queries.front()}, rng, &ot);
  EXPECT_EQ(labels.size(), 1u);
  client_goodbye(*channel);
  EXPECT_TRUE(eventually([&] {
    return daemon.stats().connections_closed.load() >= 1;
  }));

  daemon.stop();
  daemon.stop();  // idempotent
  EXPECT_EQ(daemon.stats().sessions_ok.load(), 1u);
  EXPECT_EQ(daemon.stats().active_sessions.load(), 0u);
}

}  // namespace
}  // namespace ppds::server
