#include "ppds/crypto/silent_ot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <utility>

#include "ppds/core/config.hpp"
#include "ppds/net/party.hpp"
#include "../support/hashing_endpoint.hpp"

namespace ppds::crypto {
namespace {

const DhGroup& test_group() {
  static const DhGroup g(GroupId::kModp1024);
  return g;
}

std::vector<Bytes> make_messages(std::size_t n, std::size_t len) {
  std::vector<Bytes> msgs;
  for (std::size_t i = 0; i < n; ++i) {
    Bytes m(len);
    for (std::size_t j = 0; j < len; ++j) {
      m[j] = static_cast<std::uint8_t>(i * 31 + j * 7 + 1);
    }
    msgs.push_back(std::move(m));
  }
  return msgs;
}

std::size_t hamming(const SilentRow& a, const SilentRow& b) {
  std::size_t bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    bits += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(a[i] ^ b[i])));
  }
  return bits;
}

// The RM(1,7) codeword set is what makes wrong-guess sender pads cost 2^64
// Delta guesses: every distinct pair must differ in >= 64 of the 128
// columns, and the constant-time evaluator must agree with the table.
TEST(SilentCode, MinimumDistanceIs64) {
  const auto& table = silent_codewords();
  ASSERT_EQ(table.size(), kMaxDirectArity);
  std::size_t min_distance = kSilentColumns;
  for (std::uint32_t v = 0; v < kMaxDirectArity; ++v) {
    EXPECT_EQ(table[v], silent_codeword_ct(v)) << v;
    for (std::uint32_t w = v + 1; w < kMaxDirectArity; ++w) {
      min_distance = std::min(min_distance, hamming(table[v], table[w]));
    }
  }
  EXPECT_EQ(min_distance, 64u);
}

TEST(SilentPads, SenderReceiverPadsCorrelate) {
  const std::size_t arity = 27, count = 40;
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(101);
        SilentPadSender s(test_group(), rng);
        s.reserve(ch, arity, count);
        std::vector<PrecomputedSendSlot> slots;
        for (std::size_t i = 0; i < count; ++i) slots.push_back(s.take(arity));
        return slots;
      },
      [&](net::Endpoint& ch) {
        Rng rng(102);
        SilentPadReceiver r(test_group(), rng);
        r.reserve(ch, arity, count);
        std::vector<PrecomputedRecvSlot> slots;
        for (std::size_t i = 0; i < count; ++i) slots.push_back(r.take(arity));
        return slots;
      });
  ASSERT_EQ(outcome.a.size(), count);
  ASSERT_EQ(outcome.b.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    const PrecomputedSendSlot& send = outcome.a[i];
    const PrecomputedRecvSlot& recv = outcome.b[i];
    ASSERT_EQ(send.pads.size(), arity) << i;
    ASSERT_EQ(recv.arity, arity) << i;
    ASSERT_LT(recv.choice, arity) << i;
    // The defining correlation: pads agree exactly at the receiver's secret
    // choice and nowhere else.
    EXPECT_EQ(send.pads[recv.choice], recv.pad) << i;
    for (std::size_t v = 0; v < arity; ++v) {
      if (v != recv.choice) {
        EXPECT_NE(send.pads[v], recv.pad) << i;
      }
    }
  }
}

TEST(SilentPads, TakeBeyondLedgerThrows) {
  Rng rng(103);
  SilentPadSender s(test_group(), rng);
  EXPECT_THROW(s.take(2), Error);
  SilentPadReceiver r(test_group(), rng);
  EXPECT_THROW(r.take(2), Error);
}

// The offline phase the silent engine replaces cost one ~128-byte group
// element per slot; a correction block costs 16 bytes per slot plus one
// 16-byte header per block. That marginal cost is the >= 10x bandwidth
// claim recorded in BENCH_classification.json.
TEST(SilentPads, MarginalOfflineBandwidthIs16BytesPerSlot) {
  const std::size_t count = 256;
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(104);
        SilentPadSender s(test_group(), rng);
        s.ensure_ready(ch);
        ch.reset_stats();
        s.reserve(ch, 2, count);
        return ch.stats().bytes;  // sender sends nothing during staging
      },
      [&](net::Endpoint& ch) {
        Rng rng(105);
        SilentPadReceiver r(test_group(), rng);
        r.ensure_ready(ch);
        ch.reset_stats();
        r.reserve(ch, 2, count);
        return ch.stats().bytes;
      });
  EXPECT_EQ(outcome.a, 0u);
  EXPECT_EQ(outcome.b, count * kSilentRowBytes + 16u);
}

TEST(BatchedSilent, OnlineTransferMatchesMessages) {
  const auto msgs = make_messages(8, 16);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(111);
        SilentPadSender s(test_group(), rng);
        for (int round = 0; round < 3; ++round) s.send(ch, msgs, 2);
        return s.ledger_available(8);
      },
      [&](net::Endpoint& ch) {
        Rng rng(112);
        SilentPadReceiver r(test_group(), rng);
        std::vector<Bytes> all;
        for (std::size_t round = 0; round < 3; ++round) {
          const std::vector<std::size_t> want{round, round + 5};
          auto got = r.receive(ch, want, 8, 16);
          all.insert(all.end(), got.begin(), got.end());
        }
        return all;
      });
  ASSERT_EQ(outcome.b.size(), 6u);
  for (std::size_t round = 0; round < 3; ++round) {
    EXPECT_EQ(outcome.b[2 * round], msgs[round]);
    EXPECT_EQ(outcome.b[2 * round + 1], msgs[round + 5]);
  }
  // The auto-staging rule keeps a lead: the ledger reports it coherently.
  EXPECT_GE(outcome.a, kSilentLeadSlots);
}

TEST(BatchedSilent, RejectsArityBeyondDirectBound) {
  // 300 > kMaxDirectArity: refused before the seed agreement starts.
  const auto msgs = make_messages(300, 4);
  auto [a, b] = net::make_channel();
  Rng rng(113);
  SilentPadSender s(test_group(), rng);
  EXPECT_THROW(s.send(a, msgs, 1), InvalidArgument);
  SilentPadReceiver r(test_group(), rng);
  const std::vector<std::size_t> want{271};
  EXPECT_THROW(r.receive(b, want, 300, 4), InvalidArgument);
  EXPECT_EQ(a.stats().messages, 0u);
  EXPECT_EQ(b.stats().messages, 0u);
}

TEST(BatchedSilent, AbortWipesFrontierAndPads) {
  const OtAbortAudit& audit = ot_abort_audit();
  const std::uint64_t aborts0 = audit.aborts.load();
  const std::uint64_t wiped0 = audit.wiped.load();
  const std::uint64_t frontier0 = audit.frontier_wipes.load();

  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(121);
        auto s = std::make_unique<SilentPadSender>(test_group(), rng);
        s->reserve(ch, 6, 8);  // staged ledger + pending correction bytes
        s->abort();
        EXPECT_TRUE(s->aborted());
        EXPECT_TRUE(s->frontier_clean());
        EXPECT_TRUE(s->pads_clean());
        EXPECT_THROW(s->send(ch, make_messages(4, 8), 1), ProtocolError);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(122);
        auto r = std::make_unique<SilentPadReceiver>(test_group(), rng);
        r->reserve(ch, 6, 8);
        r->abort();
        EXPECT_TRUE(r->aborted());
        EXPECT_TRUE(r->frontier_clean());
        EXPECT_TRUE(r->pads_clean());
        const std::vector<std::size_t> want{0};
        EXPECT_THROW(r->receive(ch, want, 4, 8), ProtocolError);
        return 0;
      });
  (void)outcome;
  EXPECT_EQ(audit.aborts.load(), aborts0 + 2);
  EXPECT_EQ(audit.wiped.load(), wiped0 + 2);
  EXPECT_EQ(audit.frontier_wipes.load(), frontier0 + 2);
}

/// Test-local transport that runs a hook (once) inside its first recv — a
/// deterministic stand-in for a watchdog or a peer thread aborting the
/// engine while the protocol thread waits on the wire.
class AbortOnRecvEndpoint final : public net::Endpoint {
 public:
  explicit AbortOnRecvEndpoint(net::Endpoint&& inner)
      : net::Endpoint(std::move(inner)) {}

  std::function<void()> on_recv;

 protected:
  net::detail::Frame fetch(const net::Deadline& deadline) override {
    if (on_recv) std::exchange(on_recv, nullptr)();
    return Endpoint::fetch(deadline);
  }
};

TEST(BatchedSilent, AbortDuringSeedAgreementInstallsNoSeeds) {
  // Regression: ensure_ready used to install the fresh GGM trees (and the
  // receiver's choice stream) without re-checking aborted_, so an abort()
  // that landed during the base-OT round left live seeds in a dead engine.
  // Each engine's own abort() runs from inside its first recv of the seed
  // agreement; the engine mutex is never held across I/O, so this cannot
  // deadlock.
  {
    auto [raw, peer_end] = net::make_channel();
    AbortOnRecvEndpoint sender_end(std::move(raw));
    Rng rng(151);
    SilentPadSender s(test_group(), rng);
    sender_end.on_recv = [&s] { s.abort(); };
    net::run_two_party_on(
        sender_end, peer_end,
        [&](net::Endpoint& ch) {
          EXPECT_THROW(s.reserve(ch, 6, 8), ProtocolError);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng peer_rng(152);
          SilentPadReceiver r(test_group(), peer_rng);
          r.reserve(ch, 6, 8);  // sends only: completes either way
          return 0;
        });
    EXPECT_TRUE(s.aborted());
    EXPECT_TRUE(s.frontier_clean());
    EXPECT_TRUE(s.pads_clean());
  }
  {
    auto [peer_end, raw] = net::make_channel();
    AbortOnRecvEndpoint receiver_end(std::move(raw));
    Rng rng(153);
    SilentPadReceiver r(test_group(), rng);
    receiver_end.on_recv = [&r] { r.abort(); };
    net::run_two_party_on(
        peer_end, receiver_end,
        [&](net::Endpoint& ch) {
          Rng peer_rng(154);
          SilentPadSender s(test_group(), peer_rng);
          // Waits for a correction block the aborted receiver never sends;
          // the receiver closes the channel instead.
          EXPECT_THROW(s.reserve(ch, 6, 8), ProtocolError);
          return 0;
        },
        [&](net::Endpoint& ch) {
          EXPECT_THROW(r.reserve(ch, 6, 8), ProtocolError);
          ch.close();
          return 0;
        });
    EXPECT_TRUE(r.aborted());
    EXPECT_TRUE(r.frontier_clean());
    EXPECT_TRUE(r.pads_clean());
  }
}

TEST(BatchedSilent, AvailableSlotsCoherentUnderHammer) {
  // Regression: ledger_available() used to sum per-arity pools with no
  // lock. A hammer thread reading the accessors while the protocol thread
  // stages, expands and consumes is what tsan needs to prove the snapshot
  // is coherent.
  const auto msgs = make_messages(8, 16);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(141);
        SilentPadSender s(test_group(), rng);
        std::atomic<bool> done{false};
        std::thread hammer([&] {
          const std::size_t bound =
              kSilentRowsPerLeaf << kSilentTreeDepth;  // whole pad domain
          while (!done.load()) {
            // Each accessor takes the engine lock, so a snapshot can never
            // see a torn staged/consumed pair (which would underflow to
            // ~2^64). No ordering is asserted ACROSS the two calls — the
            // protocol thread legitimately stages between them.
            ASSERT_LE(s.ledger_available(), bound);
            ASSERT_LE(s.ledger_available(8), bound);
            (void)s.ledger_available();
          }
        });
        for (int round = 0; round < 6; ++round) s.send(ch, msgs, 2);
        done.store(true);
        hammer.join();
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(142);
        SilentPadReceiver r(test_group(), rng);
        std::atomic<bool> done{false};
        std::thread hammer([&] {
          const std::size_t bound =
              kSilentRowsPerLeaf << kSilentTreeDepth;
          while (!done.load()) {
            ASSERT_LE(r.ledger_available(), bound);
            ASSERT_LE(r.ledger_available(8), bound);
            (void)r.ledger_available();
          }
        });
        std::vector<Bytes> all;
        for (std::size_t round = 0; round < 6; ++round) {
          const std::vector<std::size_t> want{round % 8, (round + 3) % 8};
          auto got = r.receive(ch, want, 8, 16);
          all.insert(all.end(), got.begin(), got.end());
        }
        done.store(true);
        hammer.join();
        return all;
      });
  ASSERT_EQ(outcome.b.size(), 12u);
}

TEST(SilentOt, GoldenTransferTranscript) {
  // The OT layer's wire bytes, pinned below the session goldens (which only
  // reach the session arity M = 10): seeded engines reserve and then run
  // k-of-n transfers at arities 2, 10 and 256, enough arity-10 transfers to
  // exhaust the reserved 128-row block and restage mid-stream. Both
  // directions are hashed at the receiver.
  core::SchemeConfig cfg;
  cfg.group = GroupId::kModp1024;
  constexpr std::size_t kRounds = 50;
  auto [sender_end, receiver_raw] = net::make_channel();
  test::HashingEndpoint receiver_end(std::move(receiver_raw));
  auto outcome = net::run_two_party_on(
      sender_end, receiver_end,
      [&](net::Endpoint& ch) {
        Rng rng(131);
        core::OtBundle ot(cfg, rng);
        ot.prepare_sender(ch, core::OtDemand{10, 20});
        for (std::size_t round = 0; round < kRounds; ++round) {
          ot.sender().send(ch, make_messages(2, 8), 1);
          ot.sender().send(ch, make_messages(10, 12), 3);
          if (round % 10 == 0) {
            ot.sender().send(ch, make_messages(256, 4), 2);
          }
        }
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(132);
        core::OtBundle ot(cfg, rng);
        ot.prepare_receiver(ch, core::OtDemand{10, 20});
        std::size_t mismatches = 0;
        for (std::size_t round = 0; round < kRounds; ++round) {
          const std::vector<std::size_t> two{round % 2};
          const std::vector<std::size_t> ten{round % 3, 4, 9 - round % 4};
          const std::vector<std::size_t> wide{round, 255 - round};
          const auto msgs2 = make_messages(2, 8);
          const auto msgs10 = make_messages(10, 12);
          const auto got2 = ot.receiver().receive(ch, two, 2, 8);
          mismatches += got2[0] != msgs2[two[0]];
          const auto got10 = ot.receiver().receive(ch, ten, 10, 12);
          for (std::size_t i = 0; i < ten.size(); ++i) {
            mismatches += got10[i] != msgs10[ten[i]];
          }
          if (round % 10 == 0) {
            const auto msgs256 = make_messages(256, 4);
            const auto got = ot.receiver().receive(ch, wide, 256, 4);
            for (std::size_t i = 0; i < wide.size(); ++i) {
              mismatches += got[i] != msgs256[wide[i]];
            }
          }
        }
        return mismatches;
      });
  EXPECT_EQ(outcome.b, 0u);
  EXPECT_EQ(receiver_end.sent_hex(),
            "13be5ab08560c72298f97aea07780d4dce54b53fef57da85908601f383acef55");
  EXPECT_EQ(receiver_end.received_hex(),
            "634599cc781cfad5a43906867abd268c7441c024749b81f67eb4f5a961d7d33b");
}

}  // namespace
}  // namespace ppds::crypto
