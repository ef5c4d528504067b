#include "ppds/crypto/ot.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "ppds/crypto/silent_ot.hpp"
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

/// Direct 1-of-\p arity slots from a silent engine pair (the only source of
/// arity > 2 slots): {sender slots, receiver slots}.
std::pair<std::vector<PrecomputedSendSlot>, std::vector<PrecomputedRecvSlot>>
make_slots(net::Endpoint& a, net::Endpoint& b, std::size_t arity,
           std::size_t count) {
  Rng rng_s(51), rng_r(52);
  SilentPadSender s(test_group(), rng_s);
  SilentPadReceiver r(test_group(), rng_r);
  std::thread peer([&] {
    r.ensure_ready(b);
    r.stage_to(b, arity, count);
  });
  s.ensure_ready(a);
  s.stage_to(a, arity, count);
  peer.join();
  std::pair<std::vector<PrecomputedSendSlot>, std::vector<PrecomputedRecvSlot>>
      out;
  for (std::size_t i = 0; i < count; ++i) {
    out.first.push_back(s.take(arity));
    out.second.push_back(r.take(arity));
  }
  return out;
}

TEST(NaorPinkasOt, OneOfTwoBothChoices) {
  for (bool choice : {false, true}) {
    const Bytes m0{1, 2, 3, 4}, m1{5, 6, 7, 8};
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(1);
          NaorPinkasSender s(test_group(), rng);
          s.send_1of2(ch, m0, m1);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(2);
          NaorPinkasReceiver r(test_group(), rng);
          return r.receive_1of2(ch, choice, 4);
        });
    EXPECT_EQ(outcome.b, choice ? m1 : m0) << choice;
  }
}

TEST(NaorPinkasOt, UnequalLengthsRejected) {
  auto [a, b] = net::make_channel();
  Rng rng(1);
  NaorPinkasSender s(test_group(), rng);
  EXPECT_THROW(s.send_1of2(a, Bytes{1}, Bytes{1, 2}), InvalidArgument);
}

// 1-of-n over the private engine: Naor-Pinkas base OTs seed the silent
// extension, whose direct slots carry every n (n == 1 is sent directly).
class NaorPinkas1ofN : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NaorPinkas1ofN, EveryIndexRetrievable) {
  const std::size_t n = GetParam();
  const auto msgs = make_messages(n, 16);
  for (std::size_t want = 0; want < n; ++want) {
    std::vector<std::size_t> indices{want};
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(10 + want);
          BatchedOtSender s(test_group(), rng);
          s.send(ch, msgs, 1);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(20 + want);
          BatchedOtReceiver r(test_group(), rng);
          return r.receive(ch, indices, n, 16);
        });
    ASSERT_EQ(outcome.b.size(), 1u);
    EXPECT_EQ(outcome.b[0], msgs[want]) << "n=" << n << " idx=" << want;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NaorPinkas1ofN,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(NaorPinkasOt, KOutOfNRetrievesExactlyRequested) {
  const std::size_t n = 9, k = 4;
  const auto msgs = make_messages(n, 8);
  const std::vector<std::size_t> want{0, 3, 5, 8};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        BatchedOtSender s(test_group(), rng);
        s.send(ch, msgs, k);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        BatchedOtReceiver r(test_group(), rng);
        return r.receive(ch, want, n, 8);
      });
  ASSERT_EQ(outcome.b.size(), k);
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(outcome.b[i], msgs[want[i]]);
}

TEST(NaorPinkasOt, ZeroMessagesRejected) {
  auto [a, b] = net::make_channel();
  Rng rng(1);
  BatchedOtSender s(test_group(), rng);
  const std::vector<Bytes> none;
  EXPECT_THROW(s.send(a, none, 1), Error);
}

// n == 0 must throw, never wrap `n - 1` around to SIZE_MAX.
TEST(NaorPinkasOt, ZeroNReceiveRejected) {
  auto [a, b] = net::make_channel();
  Rng rng(2);
  BatchedOtReceiver r(test_group(), rng);
  const std::vector<std::size_t> idx{0};
  EXPECT_THROW(r.receive(b, idx, 0, 8), Error);
}

TEST(NaorPinkasOt, IndexOutOfRangeThrows) {
  const auto msgs = make_messages(4, 8);
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            BatchedOtSender s(test_group(), rng);
            s.send(ch, msgs, 1);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            BatchedOtReceiver r(test_group(), rng);
            const std::vector<std::size_t> bad{4};
            return r.receive(ch, bad, 4, 8);
          }),
      Error);
}

TEST(LoopbackOt, SameInterfaceSameResult) {
  const std::size_t n = 12, k = 3;
  const auto msgs = make_messages(n, 24);
  const std::vector<std::size_t> want{2, 7, 11};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        LoopbackSender s;
        s.send(ch, msgs, k);
        return 0;
      },
      [&](net::Endpoint& ch) {
        LoopbackReceiver r;
        return r.receive(ch, want, n, 24);
      });
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(outcome.b[i], msgs[want[i]]);
}

TEST(LoopbackOt, WireCostIsNTimesLen) {
  const auto msgs = make_messages(10, 32);
  const std::vector<std::size_t> want{1};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        LoopbackSender s;
        s.send(ch, msgs, 1);
        return 0;
      },
      [&](net::Endpoint& ch) {
        LoopbackReceiver r;
        return r.receive(ch, want, 10, 32);
      });
  EXPECT_EQ(outcome.a_sent.bytes, 320u);
}

TEST(PrecomputedOt, OnlinePhaseCorrectForAllChoiceCombos) {
  // Offline random-pad OTs, then online transfers with both real choices
  // against both precomputed random choices (the flip logic).
  const std::size_t count = 8;
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(31);
        NaorPinkasSender np(test_group(), rng);
        auto slots = precompute_ot_sender(ch, np, count, 16, rng);
        for (std::size_t i = 0; i < count; ++i) {
          Bytes m0(16, static_cast<std::uint8_t>(i));
          Bytes m1(16, static_cast<std::uint8_t>(100 + i));
          precomputed_send_1of2(ch, slots[i], m0, m1);
        }
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(32);
        NaorPinkasReceiver np(test_group(), rng);
        auto slots = precompute_ot_receiver(ch, np, count, 16, rng);
        std::vector<Bytes> got;
        for (std::size_t i = 0; i < count; ++i) {
          got.push_back(precomputed_receive_1of2(ch, slots[i], i % 2 == 1));
        }
        return got;
      });
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t expect =
        (i % 2 == 1) ? static_cast<std::uint8_t>(100 + i)
                     : static_cast<std::uint8_t>(i);
    EXPECT_EQ(outcome.b[i], Bytes(16, expect)) << i;
  }
}

TEST(PrecomputedOt, OnlineWireCostIsTiny) {
  // The online phase must not contain any group elements: 1 byte up,
  // 2*len bytes down per transfer.
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(41);
        NaorPinkasSender np(test_group(), rng);
        auto slots = precompute_ot_sender(ch, np, 1, 8, rng);
        ch.reset_stats();
        precomputed_send_1of2(ch, slots[0], Bytes(8, 1), Bytes(8, 2));
        return ch.stats().bytes;
      },
      [&](net::Endpoint& ch) {
        Rng rng(42);
        NaorPinkasReceiver np(test_group(), rng);
        auto slots = precompute_ot_receiver(ch, np, 1, 8, rng);
        precomputed_receive_1of2(ch, slots[0], true);
        return 0;
      });
  EXPECT_EQ(outcome.a, 16u);
}

TEST(PrecomputedOt, DirectOneOfNEveryIndexRetrievable) {
  // Direct 1-of-5 slots: whatever random choice the offline phase drew,
  // the shift correction must align every requested index.
  const std::size_t arity = 5, count = 10;
  const auto msgs = make_messages(arity, 12);
  auto [a, b] = net::make_channel();
  auto [send_slots, recv_slots] = make_slots(a, b, arity, count);
  std::thread sender([&, &a_ref = a, &slots = send_slots] {
    for (std::size_t i = 0; i < count; ++i) {
      precomputed_send_1ofn(a_ref, slots[i], msgs);
    }
  });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(send_slots[i].pads.size(), arity);
    EXPECT_EQ(recv_slots[i].arity, arity);
    EXPECT_LT(recv_slots[i].choice, arity);
    EXPECT_EQ(precomputed_receive_1ofn(b, recv_slots[i], i % arity, 12),
              msgs[i % arity])
        << i;
  }
  sender.join();
}

TEST(PrecomputedOt, DirectOneOfNOnlineWireCost) {
  // Online direct 1-of-n: 1 shift byte up, n * len bytes down, no group
  // elements.
  const std::size_t arity = 7;
  const auto msgs = make_messages(arity, 8);
  auto [a, b] = net::make_channel();
  auto [send_slots, recv_slots] = make_slots(a, b, arity, 1);
  a.reset_stats();
  b.reset_stats();
  std::thread sender([&, &a_ref = a, &slots = send_slots] {
    precomputed_send_1ofn(a_ref, slots[0], msgs);
  });
  EXPECT_EQ(precomputed_receive_1ofn(b, recv_slots[0], 4, 8), msgs[4]);
  sender.join();
  EXPECT_EQ(a.stats().bytes, arity * 8u);
  EXPECT_EQ(b.stats().bytes, 1u);
}

TEST(PrecomputedOt, ArityOutOfRangeRejected) {
  // The online phase refuses a slot of arity < 2 and a message count that
  // differs from the slot's arity, before any wire traffic.
  auto [a, b] = net::make_channel();
  const auto msgs = make_messages(3, 8);
  PrecomputedSendSlot unary;
  unary.pads.assign(1, Bytes(32, 1));
  const std::vector<Bytes> one{msgs.front()};
  EXPECT_THROW(precomputed_send_1ofn(a, unary, one), InvalidArgument);
  PrecomputedSendSlot quaternary;
  quaternary.pads.assign(4, Bytes(32, 1));
  EXPECT_THROW(precomputed_send_1ofn(a, quaternary, msgs), InvalidArgument);
  PrecomputedRecvSlot unary_recv;
  unary_recv.arity = 1;
  unary_recv.pad = Bytes(32, 1);
  EXPECT_THROW(precomputed_receive_1ofn(b, unary_recv, 0, 8), InvalidArgument);
  EXPECT_EQ(a.stats().messages, 0u);
  EXPECT_EQ(b.stats().messages, 0u);
}

TEST(PrecomputedEngine, KOutOfNMatchesMessages) {
  // A 4-out-of-12 transfer served from one reservation of k direct arity-12
  // slots (staged as one quantum): every requested message arrives and the
  // transfer stages nothing more.
  const std::size_t n = 12, k = 4;
  const auto msgs = make_messages(n, 8);
  const std::vector<std::size_t> want{1, 5, 9, 11};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(61);
        BatchedOtSender s(test_group(), rng);
        s.reserve(ch, n, k);
        s.send(ch, msgs, k);
        return s.available_slots(n);
      },
      [&](net::Endpoint& ch) {
        Rng rng(62);
        BatchedOtReceiver r(test_group(), rng);
        r.reserve(ch, n, k);
        return r.receive(ch, want, n, 8);
      });
  ASSERT_EQ(outcome.b.size(), k);
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(outcome.b[i], msgs[want[i]]);
  EXPECT_EQ(outcome.a, kSilentStageQuantum - k);
}

TEST(PrecomputedEngine, MultipleTransfersFromOnePool) {
  // One up-front reservation covers three 2-out-of-6 transfers; the ledger
  // drains without any restaging in between.
  const auto msgs = make_messages(6, 16);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(65);
        BatchedOtSender s(test_group(), rng);
        s.reserve(ch, /*arity=*/6, /*count=*/6);
        for (int round = 0; round < 3; ++round) s.send(ch, msgs, 2);
        return s.available_slots(6);
      },
      [&](net::Endpoint& ch) {
        Rng rng(66);
        BatchedOtReceiver r(test_group(), rng);
        r.reserve(ch, /*arity=*/6, /*count=*/6);
        std::vector<Bytes> all;
        for (std::size_t round = 0; round < 3; ++round) {
          const std::vector<std::size_t> want{round, round + 3};
          auto got = r.receive(ch, want, 6, 16);
          all.insert(all.end(), got.begin(), got.end());
        }
        return all;
      });
  EXPECT_EQ(outcome.a, kSilentStageQuantum - 6);
  ASSERT_EQ(outcome.b.size(), 6u);
  for (std::size_t round = 0; round < 3; ++round) {
    EXPECT_EQ(outcome.b[2 * round], msgs[round]);
    EXPECT_EQ(outcome.b[2 * round + 1], msgs[round + 3]);
  }
}

TEST(BatchedPrecompute, OfflinePhaseIsOneRoundTrip) {
  // The amortized offline phase for ANY slot count is exactly two messages:
  // sender's (C, g^r) announce and the receiver's blinded-key bundle.
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(70);
        NaorPinkasSender np(test_group(), rng);
        auto slots = precompute_ot_sender(ch, np, 64, 32, rng);
        return ch.stats().messages;
      },
      [&](net::Endpoint& ch) {
        Rng rng(71);
        NaorPinkasReceiver np(test_group(), rng);
        auto slots = precompute_ot_receiver(ch, np, 64, 32, rng);
        return ch.stats().messages;
      });
  EXPECT_EQ(outcome.a, 1u);
  EXPECT_EQ(outcome.b, 1u);
}

TEST(BatchedPrecompute, ZeroSlotsExchangesNothing) {
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(72);
        NaorPinkasSender np(test_group(), rng);
        auto slots = precompute_ot_sender(ch, np, 0, 16, rng);
        return slots.size() + ch.stats().messages;
      },
      [&](net::Endpoint& ch) {
        Rng rng(73);
        NaorPinkasReceiver np(test_group(), rng);
        auto slots = precompute_ot_receiver(ch, np, 0, 16, rng);
        return slots.size() + ch.stats().messages;
      });
  EXPECT_EQ(outcome.a, 0u);
  EXPECT_EQ(outcome.b, 0u);
}

TEST(BatchedPrecompute, PadLenOutOfRangeRejected) {
  auto [a, b] = net::make_channel();
  Rng rng(74);
  NaorPinkasSender np(test_group(), rng);
  EXPECT_THROW(precompute_ot_sender(a, np, 1, 0, rng), InvalidArgument);
  EXPECT_THROW(precompute_ot_sender(a, np, 1, 33, rng), InvalidArgument);
}

TEST(BatchedEngine, ReserveThenTransfer) {
  // An 8-message transfer is served from DIRECT arity-8 slots: one
  // reservation covers a 2-out-of-8 transfer with no further staging.
  const auto msgs = make_messages(8, 16);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(75);
        BatchedOtSender s(test_group(), rng);
        s.reserve(ch, /*arity=*/8, /*count=*/2);
        EXPECT_EQ(s.available_slots(8), kSilentStageQuantum);
        EXPECT_GE(s.available_slots(), 2u);
        s.send(ch, msgs, 2);
        EXPECT_EQ(s.available_slots(8), kSilentStageQuantum - 2);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(76);
        BatchedOtReceiver r(test_group(), rng);
        r.reserve(ch, /*arity=*/8, /*count=*/2);
        const std::vector<std::size_t> want{1, 6};
        auto got = r.receive(ch, want, 8, 16);
        EXPECT_EQ(r.available_slots(8), kSilentStageQuantum - 2);
        return got;
      });
  ASSERT_EQ(outcome.b.size(), 2u);
  EXPECT_EQ(outcome.b[0], msgs[1]);
  EXPECT_EQ(outcome.b[1], msgs[6]);
}

TEST(BatchedEngine, RejectsArityBeyondDirectBound) {
  // reserve() for an arity no direct slot serves (1, or 300 >
  // kMaxDirectArity) is refused in both roles before any wire traffic —
  // including the seed agreement.
  auto [a, b] = net::make_channel();
  Rng rng(85);
  BatchedOtSender s(test_group(), rng);
  EXPECT_THROW(s.reserve(a, 300, 1), InvalidArgument);
  EXPECT_THROW(s.reserve(a, 1, 1), InvalidArgument);
  BatchedOtReceiver r(test_group(), rng);
  EXPECT_THROW(r.reserve(b, 300, 1), InvalidArgument);
  EXPECT_THROW(r.reserve(b, 1, 1), InvalidArgument);
  EXPECT_EQ(a.stats().messages, 0u);
  EXPECT_EQ(b.stats().messages, 0u);
}

TEST(BatchedEngine, AutoRefillsWithoutReserve) {
  const auto msgs = make_messages(4, 8);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(77);
        BatchedOtSender s(test_group(), rng);
        s.send(ch, msgs, 1);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(78);
        BatchedOtReceiver r(test_group(), rng);
        const std::vector<std::size_t> want{3};
        return r.receive(ch, want, 4, 8);
      });
  ASSERT_EQ(outcome.b.size(), 1u);
  EXPECT_EQ(outcome.b[0], msgs[3]);
}

TEST(BatchedEngine, AbortWipesPoolAndRefusesFurtherUse) {
  // Stage slots via a reserve round trip, then abort mid-session: the
  // unconsumed correlated randomness must be zeroed IN PLACE (pool_wiped
  // audits the live buffers) and every later operation must throw a typed
  // ProtocolError — a half-consumed batch is never resumed.
  auto [a, b] = net::make_channel();
  Rng rng_s(91), rng_r(92);
  BatchedOtSender s(test_group(), rng_s);
  BatchedOtReceiver r(test_group(), rng_r);
  std::thread peer([&r, &b_ref = b] { r.reserve(b_ref, 2, 6); });
  s.reserve(a, 2, 6);
  peer.join();
  ASSERT_GE(s.available_slots(), 6u);
  ASSERT_GE(r.available_slots(), 6u);
  EXPECT_FALSE(s.pool_wiped());  // staged corrections are live material
  EXPECT_FALSE(r.pool_wiped());  // so are the receiver's pads
  EXPECT_FALSE(s.aborted());

  s.abort();
  r.abort();
  EXPECT_TRUE(s.aborted());
  EXPECT_TRUE(r.aborted());
  EXPECT_TRUE(s.pool_wiped());
  EXPECT_TRUE(r.pool_wiped());

  const auto msgs = make_messages(4, 8);
  EXPECT_THROW(s.send(a, msgs, 1), ProtocolError);
  EXPECT_THROW(s.reserve(a, 2, 1), ProtocolError);
  const std::vector<std::size_t> want{0};
  EXPECT_THROW(r.receive(b, want, 4, 8), ProtocolError);
  EXPECT_THROW(r.reserve(b, 2, 1), ProtocolError);
}

TEST(BatchedEngine, AbortIsIdempotent) {
  Rng rng(93);
  BatchedOtSender s(test_group(), rng);
  s.abort();
  s.abort();
  EXPECT_TRUE(s.aborted());
  EXPECT_TRUE(s.pool_wiped());
}

TEST(BatchedEngine, EmptyPoolReportsWiped) {
  // Vacuous truth: a never-reserved engine holds no secret bytes.
  Rng rng(94);
  const BatchedOtSender s(test_group(), rng);
  EXPECT_TRUE(s.pool_wiped());
  const BatchedOtReceiver r(test_group(), rng);
  EXPECT_TRUE(r.pool_wiped());
}

TEST(BatchedEngine, RefillsMidSessionAcrossManyTransfers) {
  // 64 rounds of 2-out-of-6 outrun the first staged quantum, forcing a
  // symmetric restage mid-session (both sides derive it from the ledger).
  constexpr std::size_t kRounds = 64;
  const auto msgs = make_messages(6, 16);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(79);
        BatchedOtSender s(test_group(), rng);
        for (std::size_t round = 0; round < kRounds; ++round) {
          s.send(ch, msgs, 2);
        }
        return s.available_slots(6);
      },
      [&](net::Endpoint& ch) {
        Rng rng(80);
        BatchedOtReceiver r(test_group(), rng);
        std::vector<Bytes> all;
        for (std::size_t round = 0; round < kRounds; ++round) {
          const std::vector<std::size_t> want{round % 3, round % 3 + 3};
          auto got = r.receive(ch, want, 6, 16);
          all.insert(all.end(), got.begin(), got.end());
        }
        return all;
      });
  ASSERT_EQ(outcome.b.size(), 2 * kRounds);
  for (std::size_t round = 0; round < kRounds; ++round) {
    EXPECT_EQ(outcome.b[2 * round], msgs[round % 3]);
    EXPECT_EQ(outcome.b[2 * round + 1], msgs[round % 3 + 3]);
  }
  // Two quanta staged, 2 * kRounds consumed.
  EXPECT_EQ(outcome.a, 2 * kSilentStageQuantum - 2 * kRounds);
}

}  // namespace
}  // namespace ppds::crypto
