#include "ppds/crypto/silent_ot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "ppds/crypto/reservoir.hpp"
#include "ppds/net/party.hpp"

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

/// Waits (bounded) until \p ready() holds — used to observe the background
/// reservoir catching up without hooking its internals.
bool wait_until(const std::function<bool()>& ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (ready()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return ready();
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
        SilentPadSender s(test_group(), rng, /*low_water=*/4);
        s.ensure_ready(ch);
        s.stage_to(ch, arity, count);
        std::vector<PrecomputedSendSlot> slots;
        for (std::size_t i = 0; i < count; ++i) slots.push_back(s.take(arity));
        return slots;
      },
      [&](net::Endpoint& ch) {
        Rng rng(102);
        SilentPadReceiver r(test_group(), rng, /*low_water=*/4);
        r.ensure_ready(ch);
        r.stage_to(ch, arity, count);
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
  SilentPadSender s(test_group(), rng, 4);
  EXPECT_THROW(s.take(2), Error);
  SilentPadReceiver r(test_group(), rng, 4);
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
        SilentPadSender s(test_group(), rng, 4);
        s.ensure_ready(ch);
        ch.reset_stats();
        s.stage_to(ch, 2, count);
        return ch.stats().bytes;  // sender sends nothing during staging
      },
      [&](net::Endpoint& ch) {
        Rng rng(105);
        SilentPadReceiver r(test_group(), rng, 4);
        r.ensure_ready(ch);
        ch.reset_stats();
        r.stage_to(ch, 2, count);
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
        BatchedOtSender s(test_group(), rng);
        for (int round = 0; round < 3; ++round) s.send(ch, msgs, 2);
        return s.available_slots(8);
      },
      [&](net::Endpoint& ch) {
        Rng rng(112);
        BatchedOtReceiver r(test_group(), rng);
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
  BatchedOtSender s(test_group(), rng);
  EXPECT_THROW(s.send(a, msgs, 1), InvalidArgument);
  BatchedOtReceiver r(test_group(), rng);
  const std::vector<std::size_t> want{271};
  EXPECT_THROW(r.receive(b, want, 300, 4), InvalidArgument);
  EXPECT_EQ(a.stats().messages, 0u);
  EXPECT_EQ(b.stats().messages, 0u);
}

TEST(BatchedSilent, WarmReservoirMakesTakeNonBlocking) {
  const auto msgs = make_messages(8, 16);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(115);
        PadReservoir reservoir(1);
        BatchedOtSender s(test_group(), rng);
        s.attach_reservoir(reservoir);
        s.reserve(ch, 8, 4);
        // Let the background worker finish expanding the staged block, then
        // the online sends must pop pre-expanded slots without one inline
        // expansion or one wait: the reserve() fast path is non-blocking
        // when the reservoir is warm.
        EXPECT_TRUE(wait_until([&] {
          return s.silent_engine()->expanded_available(8) >= 4;
        }));
        for (int round = 0; round < 2; ++round) s.send(ch, msgs, 2);
        EXPECT_EQ(s.silent_engine()->sync_expansions(), 0u);
        EXPECT_EQ(s.silent_engine()->take_waits(), 0u);
        EXPECT_GT(reservoir.steps(), 0u);
        s.detach_reservoir();
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(116);
        PadReservoir reservoir(1);
        BatchedOtReceiver r(test_group(), rng);
        r.attach_reservoir(reservoir);
        r.reserve(ch, 8, 4);
        std::vector<Bytes> all;
        for (std::size_t round = 0; round < 2; ++round) {
          const std::vector<std::size_t> want{round, round + 4};
          auto got = r.receive(ch, want, 8, 16);
          all.insert(all.end(), got.begin(), got.end());
        }
        r.detach_reservoir();
        return all;
      });
  ASSERT_EQ(outcome.b.size(), 4u);
  EXPECT_EQ(outcome.b[0], msgs[0]);
  EXPECT_EQ(outcome.b[1], msgs[4]);
  EXPECT_EQ(outcome.b[2], msgs[1]);
  EXPECT_EQ(outcome.b[3], msgs[5]);
}

TEST(BatchedSilent, TranscriptIndependentOfReservoir) {
  // The wire bytes must be a pure function of the protocol state — staging
  // is keyed on the shared ledger, never on locally-timed pool levels — so
  // running the exact same session with and without a background reservoir
  // yields bit-identical transcripts.
  const auto msgs = make_messages(8, 16);
  const auto run = [&](bool with_reservoir) {
    return net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(117);
          PadReservoir reservoir(1);
          BatchedOtSender s(test_group(), rng);
          if (with_reservoir) s.attach_reservoir(reservoir);
          for (int round = 0; round < 3; ++round) s.send(ch, msgs, 2);
          return ch.stats().bytes;
        },
        [&](net::Endpoint& ch) {
          Rng rng(118);
          PadReservoir reservoir(1);
          BatchedOtReceiver r(test_group(), rng);
          if (with_reservoir) r.attach_reservoir(reservoir);
          std::vector<Bytes> all;
          for (std::size_t round = 0; round < 3; ++round) {
            const std::vector<std::size_t> want{round, round + 3};
            auto got = r.receive(ch, want, 8, 16);
            all.insert(all.end(), got.begin(), got.end());
          }
          return std::make_pair(all, ch.stats().bytes);
        });
  };
  const auto plain = run(false);
  const auto warmed = run(true);
  EXPECT_EQ(plain.b.first, warmed.b.first);
  EXPECT_EQ(plain.a, warmed.a);  // sender wire bytes identical
  EXPECT_EQ(plain.b.second, warmed.b.second);
}

TEST(BatchedSilent, AbortWipesFrontierAndPads) {
  const OtAbortAudit& audit = ot_abort_audit();
  const std::uint64_t aborts0 = audit.aborts.load();
  const std::uint64_t wiped0 = audit.wiped.load();
  const std::uint64_t frontier0 = audit.frontier_wipes.load();
  const std::uint64_t reservoir0 = audit.reservoir_wipes.load();

  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(121);
        auto s = std::make_unique<BatchedOtSender>(test_group(), rng);
        s->reserve(ch, 6, 8);  // staged ledger + pending correction bytes
        s->abort();
        EXPECT_TRUE(s->aborted());
        EXPECT_TRUE(s->pool_wiped());
        EXPECT_TRUE(s->silent_engine()->frontier_clean());
        EXPECT_TRUE(s->silent_engine()->pads_clean());
        EXPECT_THROW(s->send(ch, make_messages(4, 8), 1), ProtocolError);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(122);
        auto r = std::make_unique<BatchedOtReceiver>(test_group(), rng);
        r->reserve(ch, 6, 8);
        r->abort();
        EXPECT_TRUE(r->aborted());
        EXPECT_TRUE(r->pool_wiped());
        EXPECT_TRUE(r->silent_engine()->frontier_clean());
        EXPECT_TRUE(r->silent_engine()->pads_clean());
        const std::vector<std::size_t> want{0};
        EXPECT_THROW(r->receive(ch, want, 4, 8), ProtocolError);
        return 0;
      });
  (void)outcome;
  EXPECT_EQ(audit.aborts.load(), aborts0 + 2);
  EXPECT_EQ(audit.wiped.load(), wiped0 + 2);
  EXPECT_EQ(audit.frontier_wipes.load(), frontier0 + 2);
  EXPECT_EQ(audit.reservoir_wipes.load(), reservoir0 + 2);
}

TEST(BatchedSilent, AbortRacesBackgroundRefill) {
  // The hard case: abort() lands while the reservoir worker may be inside
  // refill_step(). The wipe must win — frontier and pads provably clean,
  // audit counters exact — with the background thread still running.
  const OtAbortAudit& audit = ot_abort_audit();
  const std::uint64_t frontier0 = audit.frontier_wipes.load();
  const std::uint64_t reservoir0 = audit.reservoir_wipes.load();
  PadReservoir reservoir(2);
  const int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(131 + static_cast<std::uint64_t>(round));
          BatchedOtSender s(test_group(), rng);
          s.attach_reservoir(reservoir);
          s.reserve(ch, 6, 64);  // plenty of pending expansion work
          s.abort();             // while the worker may be mid-step
          EXPECT_TRUE(s.pool_wiped());
          EXPECT_TRUE(s.silent_engine()->frontier_clean());
          EXPECT_TRUE(s.silent_engine()->pads_clean());
          s.detach_reservoir();
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(161 + static_cast<std::uint64_t>(round));
          BatchedOtReceiver r(test_group(), rng);
          r.attach_reservoir(reservoir);
          r.reserve(ch, 6, 64);
          r.abort();
          EXPECT_TRUE(r.pool_wiped());
          EXPECT_TRUE(r.silent_engine()->frontier_clean());
          EXPECT_TRUE(r.silent_engine()->pads_clean());
          r.detach_reservoir();
          return 0;
        });
    (void)outcome;
  }
  EXPECT_EQ(audit.frontier_wipes.load(), frontier0 + 2 * kRounds);
  EXPECT_EQ(audit.reservoir_wipes.load(), reservoir0 + 2 * kRounds);
}

TEST(BatchedSilent, AvailableSlotsCoherentUnderHammer) {
  // Satellite regression: available_slots() used to sum per-arity pools
  // with no lock against the background refill. A hammer thread reading the
  // accessors while the protocol and the reservoir mutate the pools is
  // exactly what tsan needs to prove the snapshot is coherent.
  const auto msgs = make_messages(8, 16);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(141);
        PadReservoir reservoir(1);
        BatchedOtSender s(test_group(), rng);
        s.attach_reservoir(reservoir);
        std::atomic<bool> done{false};
        std::thread hammer([&] {
          const std::size_t bound =
              kSilentRowsPerLeaf << kSilentTreeDepth;  // whole pad domain
          while (!done.load()) {
            // Each accessor takes the engine lock, so a snapshot can never
            // see a torn staged/consumed pair (which would underflow to
            // ~2^64). No ordering is asserted ACROSS the two calls — the
            // protocol thread legitimately stages between them.
            ASSERT_LE(s.available_slots(), bound);
            ASSERT_LE(s.available_slots(8), bound);
            (void)s.available_slots();
          }
        });
        for (int round = 0; round < 6; ++round) s.send(ch, msgs, 2);
        done.store(true);
        hammer.join();
        s.detach_reservoir();
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(142);
        PadReservoir reservoir(1);
        BatchedOtReceiver r(test_group(), rng);
        r.attach_reservoir(reservoir);
        std::atomic<bool> done{false};
        std::thread hammer([&] {
          const std::size_t bound =
              kSilentRowsPerLeaf << kSilentTreeDepth;
          while (!done.load()) {
            ASSERT_LE(r.available_slots(), bound);
            ASSERT_LE(r.available_slots(8), bound);
            (void)r.available_slots();
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
        r.detach_reservoir();
        return all;
      });
  ASSERT_EQ(outcome.b.size(), 12u);
}

TEST(PadReservoir, StopIsIdempotentAndDetachSafe) {
  PadReservoir reservoir(2);
  EXPECT_EQ(reservoir.workers(), 2u);
  Rng rng(151);
  {
    SilentPadSender s(test_group(), rng, 4);
    s.attach_reservoir(&reservoir);
    EXPECT_EQ(reservoir.attached(), 1u);
    s.detach_reservoir();
    EXPECT_EQ(reservoir.attached(), 0u);
    // Destroying an attached engine is also safe: the destructor detaches.
    s.attach_reservoir(&reservoir);
  }
  EXPECT_EQ(reservoir.attached(), 0u);
  reservoir.stop();
  reservoir.stop();
}

}  // namespace
}  // namespace ppds::crypto
