#include "ppds/net/channel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "../support/faulty.hpp"
#include "ppds/net/party.hpp"

namespace ppds::net {
namespace {

using test::Faulty;
using test::FaultSpec;

TEST(Channel, PingPong) {
  auto [a, b] = make_channel();
  a.send(Bytes{1, 2, 3});
  EXPECT_EQ(b.recv(), (Bytes{1, 2, 3}));
  b.send(Bytes{4});
  EXPECT_EQ(a.recv(), (Bytes{4}));
}

TEST(Channel, FifoOrderPreserved) {
  auto [a, b] = make_channel();
  for (std::uint8_t i = 0; i < 100; ++i) a.send(Bytes{i});
  for (std::uint8_t i = 0; i < 100; ++i) EXPECT_EQ(b.recv(), Bytes{i});
}

TEST(Channel, StatsCountBytesAndMessages) {
  auto [a, b] = make_channel();
  a.send(Bytes(10, 0));
  a.send(Bytes(32, 0));
  EXPECT_EQ(a.stats().messages, 2u);
  EXPECT_EQ(a.stats().bytes, 42u);
  EXPECT_EQ(b.stats().messages, 0u);
  b.recv();
  b.recv();
  a.reset_stats();
  EXPECT_EQ(a.stats().bytes, 0u);
}

TEST(Channel, LatencyModelAccountsWireTime) {
  LatencyModel model;
  model.latency_us = 100.0;
  model.bandwidth_mbps = 8.0;  // 1 byte per microsecond
  auto [a, b] = make_channel(model);
  a.send(Bytes(50, 0));
  EXPECT_DOUBLE_EQ(a.stats().simulated_wire_us, 100.0 + 50.0);
  b.recv();
}

TEST(Channel, LatencyModelZeroBandwidthMeansInfinite) {
  LatencyModel model;
  model.latency_us = 7.0;
  EXPECT_DOUBLE_EQ(model.cost_us(1000000), 7.0);
}

TEST(Channel, CloseUnblocksPeerWithError) {
  auto [a, b] = make_channel();
  std::thread t([&a_ref = a] { a_ref.close(); });
  EXPECT_THROW(b.recv(), ProtocolError);
  t.join();
}

TEST(Channel, CrossThreadTransfer) {
  auto [a, b] = make_channel();
  std::thread producer([&a_ref = a] {
    for (int i = 0; i < 1000; ++i) {
      a_ref.send(Bytes{static_cast<std::uint8_t>(i & 0xff)});
    }
  });
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(b.recv()[0], static_cast<std::uint8_t>(i & 0xff));
  }
  producer.join();
}

// Returns the diagnostic a recv() is expected to fail with.
std::string recv_error(Endpoint& end) {
  try {
    end.recv();
  } catch (const ProtocolError& e) {
    return e.what();
  }
  ADD_FAILURE() << "recv unexpectedly succeeded";
  return "";
}

TEST(Channel, RecvDeadlineOnSilentPeerThrowsTimeout) {
  auto [a, b] = make_channel();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(b.recv(Deadline::after(std::chrono::milliseconds{50})),
               TimeoutError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Bounded: well past the deadline but nowhere near "forever".
  EXPECT_GE(elapsed, std::chrono::milliseconds{45});
  EXPECT_LT(elapsed, std::chrono::seconds{30});
  a.send(Bytes{1});  // channel still usable after the timeout
  EXPECT_EQ(b.recv(), Bytes{1});
}

TEST(Channel, InstalledDeadlineAppliesToPlainRecv) {
  auto [a, b] = make_channel();
  b.set_recv_deadline(Deadline::after(std::chrono::milliseconds{50}));
  EXPECT_THROW(b.recv(), TimeoutError);
  (void)a;
}

TEST(Channel, TimeoutIsAProtocolError) {
  // The retry layer catches ProtocolError; timeouts must be retryable.
  auto [a, b] = make_channel();
  EXPECT_THROW(b.recv(Deadline::after(std::chrono::milliseconds{1})),
               ProtocolError);
  (void)a;
}

TEST(Channel, QueueOverByteCapThrowsBackpressure) {
  ChannelOptions options;
  options.max_queue_bytes = 64;
  auto [a, b] = make_channel(options);
  a.send(Bytes(40, 1));
  EXPECT_THROW(a.send(Bytes(40, 2)), BackpressureError);
  // Draining the queue frees capacity again.
  EXPECT_EQ(b.recv(), Bytes(40, 1));
  a.send(Bytes(40, 2));
  EXPECT_EQ(b.recv(), Bytes(40, 2));
}

TEST(Channel, BackpressureIsAProtocolError) {
  ChannelOptions options;
  options.max_queue_bytes = 1;
  auto [a, b] = make_channel(options);
  EXPECT_THROW(a.send(Bytes(2, 0)), ProtocolError);
  (void)b;
}

TEST(Channel, QueuedMessagesDrainAfterClose) {
  auto [a, b] = make_channel();
  a.send(Bytes{1});
  a.send(Bytes{2});
  a.close();
  EXPECT_EQ(b.recv(), Bytes{1});
  EXPECT_EQ(b.recv(), Bytes{2});
  EXPECT_THROW(b.recv(), ProtocolError);
}

TEST(Channel, CloseDuringBlockingRecvUnblocks) {
  auto [a, b] = make_channel();
  std::thread closer([&a_ref = a] {
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    a_ref.close();
  });
  EXPECT_THROW(b.recv(), ProtocolError);  // was already blocked in recv()
  closer.join();
}

TEST(Channel, DoubleCloseIsIdempotent) {
  auto [a, b] = make_channel();
  a.close();
  a.close();
  EXPECT_THROW(b.recv(), ProtocolError);
}

TEST(Channel, SendAfterPeerCloseThrows) {
  auto [a, b] = make_channel();
  b.close();
  EXPECT_THROW(a.send(Bytes{1}), ProtocolError);
}

TEST(Channel, MovedFromEndpointIsInertAndUseThrows) {
  auto [a, b] = make_channel();
  Endpoint a2(std::move(a));
  // The moved-from endpoint must not tear the link down when destroyed,
  // and any use of it must throw rather than crash.
  EXPECT_THROW(a.send(Bytes{1}), ProtocolError);   // NOLINT(bugprone-use-after-move)
  EXPECT_THROW((void)a.recv(), ProtocolError);     // NOLINT(bugprone-use-after-move)
  a2.send(Bytes{9});
  EXPECT_EQ(b.recv(), Bytes{9});
}

TEST(Channel, MovedFromEndpointDestructionIsSafe) {
  auto [a, b] = make_channel();
  { const Endpoint owner(std::move(a)); }  // destroys the MOVED-TO end
  // Destroying the moved-to endpoint closes the link; the moved-from shell
  // (still named `a`) must not crash on destruction at scope exit.
  EXPECT_THROW(b.recv(), ProtocolError);
}

TEST(Framing, HeaderOverheadIsAccountedSeparately) {
  auto [a, b] = make_channel();
  a.send(Bytes(10, 0));
  EXPECT_EQ(a.stats().bytes, 10u);  // payload only: transcripts unchanged
  EXPECT_EQ(a.stats().overhead_bytes, kFrameHeaderBytes);
  b.recv();
}

TEST(Framing, StageMismatchNamesBothStages) {
  auto [a, b] = make_channel();
  a.set_stage(Stage::kOtSetup);  // b still at kNone: asymmetric advance
  a.send(Bytes{1});
  const std::string what = recv_error(b);
  EXPECT_NE(what.find("stage mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find("expected none"), std::string::npos) << what;
  EXPECT_NE(what.find("got ot-setup"), std::string::npos) << what;
}

TEST(Framing, CrossSessionMessageNamesBothIds) {
  auto [a, b] = make_channel();
  a.set_session_id(42);  // b never adopted a session
  a.send(Bytes{1});
  const std::string what = recv_error(b);
  EXPECT_NE(what.find("cross-session"), std::string::npos) << what;
  EXPECT_NE(what.find("expected session 0"), std::string::npos) << what;
  EXPECT_NE(what.find("got 42"), std::string::npos) << what;
}

TEST(Framing, MatchingStageAndSessionPass) {
  auto [a, b] = make_channel();
  a.set_stage(Stage::kNorms);
  b.set_stage(Stage::kNorms);
  a.set_session_id(7);
  b.set_session_id(7);
  a.send(Bytes{1, 2});
  EXPECT_EQ(b.recv(), (Bytes{1, 2}));
}

TEST(Framing, DuplicatedFrameIsDiagnosedAsReplay) {
  auto [a, b] = make_channel();
  FaultSpec spec;
  spec.duplicate = 1.0;
  Faulty<Endpoint> faulty(spec, /*seed=*/1, std::move(a));
  faulty.send(Bytes{5});
  EXPECT_EQ(b.recv(), Bytes{5});  // first copy is fine
  const std::string what = recv_error(b);
  EXPECT_NE(what.find("replayed message"), std::string::npos) << what;
  EXPECT_NE(what.find("expected seq 1"), std::string::npos) << what;
  EXPECT_NE(what.find("got 0"), std::string::npos) << what;
}

TEST(Framing, ReorderedFrameIsDiagnosedOutOfOrder) {
  auto [a, b] = make_channel();
  FaultSpec spec;
  spec.reorder = 1.0;
  Faulty<Endpoint> faulty(spec, /*seed=*/2, std::move(a));
  faulty.send(Bytes{1});  // held back...
  faulty.send(Bytes{2});  // ...delivered first
  const std::string what = recv_error(b);
  EXPECT_NE(what.find("out-of-order or dropped"), std::string::npos) << what;
  EXPECT_NE(what.find("expected seq 0"), std::string::npos) << what;
  EXPECT_NE(what.find("got 1"), std::string::npos) << what;
}

TEST(Framing, BitFlipIsDiagnosedAsChecksumMismatch) {
  auto [a, b] = make_channel();
  FaultSpec spec;
  spec.bit_flip = 1.0;
  Faulty<Endpoint> faulty(spec, /*seed=*/3, std::move(a));
  faulty.send(Bytes(32, 0xAB));
  const std::string what = recv_error(b);
  EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find("corrupted or truncated"), std::string::npos) << what;
}

TEST(Framing, TruncationIsDiagnosedAsChecksumMismatch) {
  auto [a, b] = make_channel();
  FaultSpec spec;
  spec.truncate = 1.0;
  Faulty<Endpoint> faulty(spec, /*seed=*/4, std::move(a));
  faulty.send(Bytes(32, 0xCD));
  const std::string what = recv_error(b);
  EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
}

TEST(Framing, SequenceGapAfterDropNamesExpectedSeq) {
  // Drop exactly the first frame (fault-wrap only that send); the second
  // frame rides the same sequence counter through a transparent decorator,
  // so the receiver sees seq 1 where it expected seq 0.
  auto [a, b] = make_channel();
  FaultSpec spec;
  spec.drop = 1.0;
  Faulty<Endpoint> faulty(spec, /*seed=*/6, std::move(a));
  faulty.send(Bytes{1});  // dropped: receiver never sees seq 0
  const FaultSpec none;
  Faulty<Endpoint> clean(none, /*seed=*/0, std::move(faulty));
  clean.send(Bytes{2});  // seq 1 arrives first
  const std::string what = recv_error(b);
  EXPECT_NE(what.find("out-of-order or dropped"), std::string::npos) << what;
  EXPECT_NE(what.find("expected seq 0"), std::string::npos) << what;
}

TEST(Fault, DisconnectTearsDownLink) {
  auto [a, b] = make_channel();
  FaultSpec spec;
  spec.disconnect = 1.0;
  Faulty<Endpoint> faulty(spec, /*seed=*/7, std::move(a));
  faulty.send(Bytes{1});  // lost with the link
  EXPECT_THROW(b.recv(), ProtocolError);
  EXPECT_THROW(b.send(Bytes{2}), ProtocolError);
}

TEST(Fault, SameSeedSameFaults) {
  // The injector's decisions are a pure function of (spec, seed): two runs
  // with the same seed produce byte-identical receiver transcripts, and a
  // different seed (with these probabilities) a different one.
  FaultSpec spec;
  spec.drop = 0.3;
  spec.bit_flip = 0.3;
  spec.duplicate = 0.2;
  const auto transcript = [&](std::uint64_t seed) {
    auto [a, b] = make_channel();
    Faulty<Endpoint> faulty(spec, seed, std::move(a));
    for (std::uint8_t i = 0; i < 24; ++i) {
      faulty.send(Bytes{i, static_cast<std::uint8_t>(i * 3)});
    }
    faulty.close();
    std::vector<std::string> events;
    for (;;) {
      try {
        const Bytes payload = b.recv();
        events.emplace_back("ok:" + std::to_string(payload[0]) + "," +
                            std::to_string(payload[1]));
      } catch (const ProtocolError& e) {
        events.emplace_back(std::string("err:") + e.what());
        if (std::string(e.what()).find("closed") != std::string::npos) break;
      }
    }
    return events;
  };
  const auto run1 = transcript(1001);
  const auto run2 = transcript(1001);
  EXPECT_EQ(run1, run2);
  EXPECT_NE(run1, transcript(2002));
}

TEST(Fault, NoFaultsMeansTransparentDecorator) {
  auto [a, b] = make_channel();
  FaultSpec none;
  Faulty<Endpoint> faulty(none, /*seed=*/0, std::move(a));
  for (std::uint8_t i = 0; i < 10; ++i) faulty.send(Bytes{i});
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(b.recv(), Bytes{i});
}

TEST(RunTwoParty, ReturnsBothResultsAndStats) {
  auto outcome = run_two_party(
      [](Endpoint& ch) {
        ch.send(Bytes{42});
        return ch.recv()[0];
      },
      [](Endpoint& ch) {
        const Bytes msg = ch.recv();
        ch.send(Bytes{static_cast<std::uint8_t>(msg[0] + 1)});
        return static_cast<int>(msg[0]);
      });
  EXPECT_EQ(outcome.a, 43);
  EXPECT_EQ(outcome.b, 42);
  EXPECT_EQ(outcome.a_sent.messages, 1u);
  EXPECT_EQ(outcome.b_sent.messages, 1u);
}

TEST(RunTwoParty, PropagatesPartyAException) {
  EXPECT_THROW(run_two_party(
                   [](Endpoint&) -> int { throw InvalidArgument("boom"); },
                   [](Endpoint& ch) -> int {
                     try {
                       ch.recv();
                     } catch (const ProtocolError&) {
                     }
                     return 0;
                   }),
               InvalidArgument);
}

TEST(RunTwoParty, PropagatesPartyBException) {
  EXPECT_THROW(run_two_party(
                   [](Endpoint& ch) -> int {
                     try {
                       ch.recv();
                     } catch (const ProtocolError&) {
                     }
                     return 0;
                   },
                   [](Endpoint&) -> int { throw CryptoError("bad"); }),
               CryptoError);
}

}  // namespace
}  // namespace ppds::net
