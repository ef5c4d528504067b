#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ppds/net/party.hpp"
#include "ppds/ompe/ompe.hpp"

/// \file ompe_parallel_test.cpp
/// The performance knobs in OmpeParams (eval_threads, use_simd_field) are
/// LOCAL: they must never change a single wire byte.
/// These tests pin that contract down bit for bit — run them under tsan to
/// also race the worker pool against itself.

namespace ppds::ompe {
namespace {

// Wide enough that big_m * (arity + 1) crosses the inline threshold, so the
// eval_threads > 1 runs genuinely go through the worker pool.
constexpr std::size_t kWideArity = 700;

std::vector<double> wide_alpha() {
  std::vector<double> alpha(kWideArity);
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    alpha[i] = 0.001 * static_cast<double>(i % 97) - 0.04;
  }
  return alpha;
}

/// Captures the receiver's request bytes (the only message it sends before
/// the OT) for a given thread setting.
Bytes capture_request(Backend backend, unsigned eval_threads,
                      std::uint64_t seed, bool use_simd_field = true) {
  OmpeParams params;
  params.backend = backend;
  params.eval_threads = eval_threads;
  params.use_simd_field = use_simd_field;
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
        crypto::LoopbackReceiver ot;
        try {
          return run_receiver(ch, alpha, params, ot, rng);
        } catch (const ProtocolError&) {
          return 0.0;  // channel closed after capture — expected
        }
      });
  return outcome.a;
}

TEST(OmpeParallel, ReceiverTranscriptBitIdenticalAcrossThreadCounts) {
  for (Backend backend : {Backend::kReal, Backend::kField}) {
    const Bytes sequential = capture_request(backend, 1, 90210);
    const Bytes parallel = capture_request(backend, 8, 90210);
    ASSERT_FALSE(sequential.empty());
    EXPECT_EQ(sequential, parallel)
        << "backend " << static_cast<int>(backend);
  }
}

/// Builds a well-formed wide request by hand so the sender's reply can be
/// compared across thread settings without involving a (randomized)
/// receiver.
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

Bytes capture_sender_reply(Backend backend, unsigned eval_threads,
                           std::uint64_t seed, bool use_simd_field = true) {
  OmpeParams params;
  params.backend = backend;
  params.eval_threads = eval_threads;
  params.use_simd_field = use_simd_field;
  std::vector<double> weights(kWideArity);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 0.01 * static_cast<double>(i % 31) - 0.15;
  }
  const Bytes request = canned_request(params, backend);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        crypto::LoopbackSender ot;
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

TEST(OmpeParallel, SenderTranscriptBitIdenticalAcrossThreadCounts) {
  for (Backend backend : {Backend::kReal, Backend::kField}) {
    const Bytes sequential = capture_sender_reply(backend, 1, 777);
    const Bytes parallel = capture_sender_reply(backend, 8, 777);
    ASSERT_FALSE(sequential.empty());
    EXPECT_EQ(sequential, parallel)
        << "backend " << static_cast<int>(backend);
  }
}

// ---------------------------------------------------------------------------
// use_simd_field: the packed M61 lane path (field/m61xn.hpp) must reproduce
// the scalar sweeps bit for bit — on this host's best engine AND under every
// eval_threads setting (lane blocks and scalar tails land differently per
// chunking). Combined with the forced-scalar CI leg (PPDS_FORCE_SCALAR=1
// reruns this whole binary on the portable kernels), this pins transcripts
// across scalar, portable-lane, and vector-lane execution.

TEST(OmpeParallel, ReceiverTranscriptBitIdenticalScalarVsSimd) {
  for (unsigned threads : {1u, 8u}) {
    const Bytes scalar =
        capture_request(Backend::kField, threads, 31337, /*use_simd_field=*/false);
    const Bytes simd =
        capture_request(Backend::kField, threads, 31337, /*use_simd_field=*/true);
    ASSERT_FALSE(scalar.empty());
    EXPECT_EQ(scalar, simd) << "eval_threads " << threads;
  }
}

TEST(OmpeParallel, SenderTranscriptBitIdenticalScalarVsSimd) {
  for (unsigned threads : {1u, 8u}) {
    const Bytes scalar = capture_sender_reply(Backend::kField, threads, 424242,
                                              /*use_simd_field=*/false);
    const Bytes simd = capture_sender_reply(Backend::kField, threads, 424242,
                                            /*use_simd_field=*/true);
    ASSERT_FALSE(scalar.empty());
    EXPECT_EQ(scalar, simd) << "eval_threads " << threads;
  }
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
        crypto::LoopbackSender ot;
        run_sender(ch, std::vector<double>{1.0, -2.0}, 0.5, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(100);
        crypto::LoopbackReceiver ot;
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
