#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "ppds/common/hex.hpp"
#include "ppds/crypto/sha256.hpp"
#include "ppds/net/party.hpp"
#include "ppds/ompe/ompe.hpp"
#include "../support/loopback_ot.hpp"

/// \file ompe_parallel_test.cpp
/// Golden OMPE wire bytes. The point sweeps split into worker tasks by the
/// host's hardware concurrency, and the chunking must never change a wire
/// byte. The goldens below were recorded with every sweep inline and
/// reproduced unchanged across task budgets and sweep engines, so a host
/// that chunks differently — or a sweep rewrite — that moves a byte fails
/// here. Run them under tsan to also race the worker pool against itself.

namespace ppds::ompe {
namespace {

// Wide enough that big_m * (arity + 1) = 27 * 701 crosses the 2^14-element
// inline threshold, so on a multi-core host the sweeps genuinely go through
// the worker pool. The default q = 8, k = 3 gives M = 27 points, which split
// unevenly across the tasks.
constexpr std::size_t kWideArity = 700;

std::vector<double> wide_alpha() {
  std::vector<double> alpha(kWideArity);
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    alpha[i] = 0.001 * static_cast<double>(i % 97) - 0.04;
  }
  return alpha;
}

/// Captures the receiver's request bytes (the only message it sends before
/// the OT).
Bytes capture_request(Backend backend, std::uint64_t seed) {
  OmpeParams params;
  params.backend = backend;
  const std::vector<double> alpha = wide_alpha();
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        ch.set_stage(net::Stage::kOmpeRequest);  // mirror the receiver
        Bytes request = ch.recv();
        ch.close();  // abort the receiver's pending OT read
        return request;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        test::LoopbackReceiver ot;
        try {
          return run_receiver(ch, alpha, params, ot, rng);
        } catch (const ProtocolError&) {
          return 0.0;  // channel closed after capture — expected
        }
      });
  return outcome.a;
}

/// Builds a well-formed wide request by hand so the sender's reply can be
/// pinned without involving a (randomized) receiver.
Bytes canned_request(const OmpeParams& params, Backend backend) {
  const std::size_t m = params.m();
  const std::size_t big_m = params.big_m();
  ByteWriter w;
  w.u8(2);  // version
  w.u8(static_cast<std::uint8_t>(backend));
  w.u64(kWideArity);
  w.u64(big_m);
  w.u64(m);
  for (std::size_t i = 0; i < big_m; ++i) {
    if (backend == Backend::kReal) {
      w.f64(0.25 + 0.01 * static_cast<double>(i));  // distinct nonzero nodes
    } else {
      w.u64(i + 1);
    }
    for (std::size_t j = 0; j < kWideArity; ++j) {
      if (backend == Backend::kReal) {
        w.f64(0.5 - 0.002 * static_cast<double>((i + j) % 53));
      } else {
        w.u64(1 + ((i * 131 + j) % 1000));
      }
    }
  }
  return w.take();
}

Bytes capture_sender_reply(Backend backend, std::uint64_t seed) {
  OmpeParams params;
  params.backend = backend;
  std::vector<double> weights(kWideArity);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 0.01 * static_cast<double>(i % 31) - 0.15;
  }
  const Bytes request = canned_request(params, backend);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        test::LoopbackSender ot;
        run_sender(ch, weights, 0.125, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        ch.set_stage(net::Stage::kOmpeRequest);  // mirror the sender
        ch.send(Bytes(request));
        ch.set_stage(net::Stage::kOtTransfer);
        return ch.recv();  // the loopback OT payload: all M masked values
      });
  return outcome.b;
}

std::string digest_hex(const Bytes& bytes) {
  return to_hex(crypto::sha256(bytes));
}

TEST(OmpeParallel, GoldenReceiverRequest) {
  const Bytes real = capture_request(Backend::kReal, 90210);
  const Bytes field = capture_request(Backend::kField, 90210);
  ASSERT_FALSE(real.empty());
  ASSERT_FALSE(field.empty());
  EXPECT_EQ(digest_hex(real),
            "46fafe2d5f9c84664a8cb752e66375d85b355b7ff9e36bbef04717bde8e3446d");
  EXPECT_EQ(digest_hex(field),
            "3b35f3472efce2bc9d953d860e72592db0bb99d997a7164bbc04b9e0bc9b028b");
}

TEST(OmpeParallel, GoldenSenderReply) {
  const Bytes real = capture_sender_reply(Backend::kReal, 777);
  const Bytes field = capture_sender_reply(Backend::kField, 777);
  ASSERT_FALSE(real.empty());
  ASSERT_FALSE(field.empty());
  EXPECT_EQ(digest_hex(real),
            "bd9e16ad6837e9551cb7076b66cf6a2943a48019cc5c16b1aa957795f55db92a");
  EXPECT_EQ(digest_hex(field),
            "27fb5b2f9068b7120a727bc89225b3d4d32aae59b462f9051a041508a815414d");
}

TEST(OmpeParallel, StageCountersCountProtocolElementsExactly) {
  OmpeParams params;
  params.q = 4;
  params.k = 2;
  const std::size_t m = params.m();        // 5
  const std::size_t big_m = params.big_m();  // 10
  reset_stage_counters();
  const std::vector<double> alpha{0.3, 0.4};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(99);
        test::LoopbackSender ot;
        run_sender(ch, std::vector<double>{1.0, -2.0}, 0.5, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(100);
        test::LoopbackReceiver ot;
        return run_receiver(ch, alpha, params, ot, rng);
      });
  EXPECT_NEAR(outcome.b, 0.3 - 2.0 * 0.4 + 0.5, 1e-8);
  const StageCounters counters = stage_counters();
  EXPECT_EQ(counters.mask_eval_points, big_m);
  EXPECT_EQ(counters.cover_eval_points, big_m);
  EXPECT_EQ(counters.ot_elements, big_m + m);  // sender offers M, receiver keeps m
  EXPECT_EQ(counters.interp_points, m);
  reset_stage_counters();
  const StageCounters zeroed = stage_counters();
  EXPECT_EQ(zeroed.mask_eval_points, 0u);
  EXPECT_EQ(zeroed.mask_eval_ns, 0u);
  EXPECT_EQ(zeroed.ot_elements, 0u);
  EXPECT_EQ(zeroed.interp_points, 0u);
}

}  // namespace
}  // namespace ppds::ompe
