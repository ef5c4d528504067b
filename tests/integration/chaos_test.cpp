#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../support/chaos_runner.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/crypto/silent_ot.hpp"

/// \file chaos_test.cpp
/// Deterministic chaos soak of the resilient transport (docs/PROTOCOL.md
/// §6-§7): whole classification and similarity sessions run over channels
/// whose frames are dropped, duplicated, reordered, bit-flipped, truncated
/// and disconnected by a seeded injector (tests/support/faulty.hpp), under a
/// receive deadline and a whole-session retry policy, one session at a time
/// (tests/support/chaos_runner.hpp). The sweep asserts, per fault seed:
///
///   * no crash, no deadlock — every recv is deadline-bounded;
///   * every failure surfaces as a typed ppds::Error (ProtocolError once
///     retries exhaust; nothing else escapes);
///   * a run whose retries succeed produces the SAME labels / similarity as
///     the fault-free baseline (fresh-randomness retry preserves results);
///   * reruns of a seed reproduce exactly (print the seed, rerun the seed).
///
/// Seed count defaults to 64; the CI chaos-smoke job sets PPDS_CHAOS_SEEDS=8
/// for a quick sweep. A failing seed is printed by SCOPED_TRACE.

namespace ppds::core {
namespace {

using test::ChaosOptions;
using test::Ot;
using test::Wire;

std::size_t chaos_seed_count() {
  if (const char* env = std::getenv("PPDS_CHAOS_SEEDS")) {
    const unsigned long long n = std::strtoull(env, nullptr, 10);
    if (n >= 1) return static_cast<std::size_t>(n);
  }
  return 64;
}

/// Gentle per-frame fault rates: most sessions see a fault somewhere, most
/// retries eventually get a clean run through.
test::FaultSpec chaos_faults() {
  test::FaultSpec spec;
  spec.drop = 0.01;
  spec.duplicate = 0.01;
  spec.reorder = 0.01;
  spec.bit_flip = 0.01;
  spec.truncate = 0.005;
  spec.disconnect = 0.005;
  return spec;
}

ChaosOptions chaos_transport(std::uint64_t fault_seed,
                             Wire wire = Wire::kInProcess) {
  ChaosOptions chaos;
  chaos.wire = wire;
  // Short but safely above any in-process compute step: each DROPPED frame
  // costs the receiver a full deadline wait, so this bounds sweep time.
  chaos.recv_timeout = std::chrono::milliseconds{400};
  chaos.faults = chaos_faults();
  chaos.fault_seed = fault_seed;
  chaos.retry.max_attempts = 8;
  chaos.retry.backoff = std::chrono::milliseconds{1};
  chaos.retry.jitter = 0.5;  // deterministic, SplitMix64-drawn
  return chaos;
}

struct ClassFixture {
  svm::SvmModel model;
  ClassificationProfile profile;
  std::vector<std::vector<double>> samples;

  static ClassFixture make(std::size_t dim, std::size_t count,
                           svm::Kernel kernel, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<math::Vec> svs;
    std::vector<double> coeffs;
    for (int s = 0; s < 2; ++s) {
      math::Vec v(dim);
      for (auto& x : v) x = rng.uniform_nonzero(-1.0, 1.0, 0.05);
      svs.push_back(std::move(v));
      coeffs.push_back(s == 0 ? 1.0 : -0.5);
    }
    svm::SvmModel model(std::move(kernel), std::move(svs), std::move(coeffs),
                        rng.uniform(-0.2, 0.2));
    auto profile = ClassificationProfile::make(dim, model.kernel());
    std::vector<std::vector<double>> samples(count);
    for (auto& s : samples) {
      s.resize(dim);
      for (auto& v : s) v = rng.uniform(-1.0, 1.0);
    }
    return ClassFixture{std::move(model), std::move(profile),
                        std::move(samples)};
  }
};

/// Runs the classification sweep for one fixture over loopback OT; returns
/// how many seeds succeeded (the rest exhausted their retries with a typed
/// ProtocolError).
std::size_t sweep_classification(const ClassFixture& fx,
                                 const SchemeConfig& cfg,
                                 std::size_t chunk_size, std::size_t seeds,
                                 Wire wire = Wire::kInProcess) {
  const ClassificationServer server(fx.model, fx.profile, cfg);
  const ClassificationClient client(fx.profile, cfg);
  const std::vector<int> baseline =
      test::classify_chunks(server, client, fx.profile, cfg, Ot::kLoopback,
                            fx.samples, /*seed=*/404, chunk_size);

  std::size_t succeeded = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed) +
                 " (rerun with this seed to reproduce)");
    try {
      const std::vector<int> labels = test::classify_chunks(
          server, client, fx.profile, cfg, Ot::kLoopback, fx.samples,
          /*seed=*/404, chunk_size, chaos_transport(seed, wire));
      // A succeeding retry re-randomizes the whole session; sign(d(t~))
      // is randomness-invariant, so the labels must match exactly.
      EXPECT_EQ(labels, baseline);
      ++succeeded;
    } catch (const ProtocolError&) {
      // Retries exhausted: acceptable, and the only acceptable failure.
    }
  }
  return succeeded;
}

TEST(Chaos, LinearClassificationSurvivesFaultSweep) {
  const ClassFixture fx =
      ClassFixture::make(4, 3, svm::Kernel::linear(), 2024);
  const std::size_t seeds = chaos_seed_count();
  const std::size_t ok =
      sweep_classification(fx, SchemeConfig::silent(), 2, seeds);
  // The retry policy must pull most seeds through to a clean run.
  EXPECT_GE(ok * 2, seeds) << ok << "/" << seeds << " seeds succeeded";
}

TEST(Chaos, PolynomialClassificationSurvivesFaultSweep) {
  const ClassFixture fx =
      ClassFixture::make(3, 2, svm::Kernel::paper_polynomial(2), 2025);
  const std::size_t seeds = chaos_seed_count();
  const std::size_t ok =
      sweep_classification(fx, SchemeConfig::silent(), 2, seeds);
  EXPECT_GE(ok * 2, seeds) << ok << "/" << seeds << " seeds succeeded";
}

TEST(Chaos, SimilaritySurvivesFaultSweep) {
  Rng rng(31);
  const std::size_t dim = 3;
  auto random_model = [&]() {
    math::Vec w(dim);
    for (auto& v : w) v = rng.uniform_nonzero(-1.0, 1.0, 0.05);
    return svm::SvmModel(svm::Kernel::linear(), {w}, {1.0},
                         rng.uniform(-0.2, 0.2));
  };
  const auto a = random_model();
  const auto b = random_model();
  const DataSpace space;
  const auto cfg = SchemeConfig::silent();
  const SimilarityServer server(a, space, cfg);
  const SimilarityClient client(b, space, cfg);
  const double baseline = test::evaluate_similarity(
      server, client, a.kernel(), space, cfg, Ot::kLoopback, /*seed=*/505);
  const double plain = ordinary_similarity(a, b, space);
  EXPECT_NEAR(baseline, plain, 1e-5 + 1e-3 * std::abs(plain));

  const std::size_t seeds = chaos_seed_count();
  std::size_t succeeded = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed) +
                 " (rerun with this seed to reproduce)");
    try {
      const double value = test::evaluate_similarity(
          server, client, a.kernel(), space, cfg, Ot::kLoopback,
          /*seed=*/505, chaos_transport(seed));
      // Retried evaluations use fresh randomness, so T matches the
      // fault-free value only up to the scheme's approximation noise.
      EXPECT_NEAR(value, plain, 1e-5 + 1e-3 * std::abs(plain));
      ++succeeded;
    } catch (const ProtocolError&) {
    }
  }
  EXPECT_GE(succeeded * 2, seeds) << succeeded << "/" << seeds;
}

/// --- The same chaos matrix over REAL sockets --------------------------------
///
/// Wire::kSocketPair reruns whole sessions over connected AF_UNIX stream
/// sockets: every frame serialized through the kernel, deadlines mapped
/// onto poll(2), disconnect faults onto shutdown(2). Faulty<SocketEndpoint>
/// draws the identical decision stream as the in-process decorator, so the
/// sweep exercises the same fault schedule against the real-fd error
/// surface (EOF mid-frame, EPIPE, poll timeouts).

TEST(Chaos, LinearClassificationSurvivesFaultSweepOverSockets) {
  const ClassFixture fx =
      ClassFixture::make(4, 3, svm::Kernel::linear(), 2024);
  const std::size_t seeds = chaos_seed_count();
  const std::size_t ok =
      sweep_classification(fx, SchemeConfig::silent(), 2, seeds,
                           Wire::kSocketPair);
  EXPECT_GE(ok * 2, seeds) << ok << "/" << seeds << " seeds succeeded";
}

TEST(Chaos, SimilaritySurvivesFaultSweepOverSockets) {
  Rng rng(33);
  const std::size_t dim = 3;
  auto random_model = [&]() {
    math::Vec w(dim);
    for (auto& v : w) v = rng.uniform_nonzero(-1.0, 1.0, 0.05);
    return svm::SvmModel(svm::Kernel::linear(), {w}, {1.0},
                         rng.uniform(-0.2, 0.2));
  };
  const auto a = random_model();
  const auto b = random_model();
  const DataSpace space;
  const auto cfg = SchemeConfig::silent();
  const SimilarityServer server(a, space, cfg);
  const SimilarityClient client(b, space, cfg);
  const double plain = ordinary_similarity(a, b, space);

  const std::size_t seeds = chaos_seed_count();
  std::size_t succeeded = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed) +
                 " (rerun with this seed to reproduce)");
    try {
      const double value = test::evaluate_similarity(
          server, client, a.kernel(), space, cfg, Ot::kLoopback,
          /*seed=*/505, chaos_transport(seed, Wire::kSocketPair));
      EXPECT_NEAR(value, plain, 1e-5 + 1e-3 * std::abs(plain));
      ++succeeded;
    } catch (const ProtocolError&) {
    }
  }
  EXPECT_GE(succeeded * 2, seeds) << succeeded << "/" << seeds;
}

TEST(Chaos, SocketSweepMatchesInProcessOutcomes) {
  // Identical fault-decision streams on both transports: a seed that pulls
  // through over the in-process wire must produce the SAME labels over the
  // socket wire (transport cannot change protocol results; only whether a
  // given fault schedule is survivable may differ at the margins, e.g. a
  // reordered frame racing a deadline — so only successful runs compare).
  const ClassFixture fx =
      ClassFixture::make(4, 2, svm::Kernel::linear(), 2028);
  const auto cfg = SchemeConfig::silent();
  const ClassificationServer server(fx.model, fx.profile, cfg);
  const ClassificationClient client(fx.profile, cfg);

  auto run = [&](std::uint64_t seed,
                 Wire wire) -> std::optional<std::vector<int>> {
    try {
      return test::classify_chunks(server, client, fx.profile, cfg,
                                   Ot::kLoopback, fx.samples, 13, 2,
                                   chaos_transport(seed, wire));
    } catch (const ProtocolError&) {
      return std::nullopt;
    }
  };
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const auto in_process = run(seed, Wire::kInProcess);
    const auto socket = run(seed, Wire::kSocketPair);
    if (in_process.has_value() && socket.has_value()) {
      EXPECT_EQ(*in_process, *socket);
      ++compared;
    }
  }
  EXPECT_GE(compared, 1u) << "no seed survived on both transports";
}

TEST(Chaos, SeedsReproduceExactly) {
  // The whole point of seeded injection: the same (fixture, fault seed)
  // produces the same outcome — success with identical labels, or the same
  // typed failure.
  const ClassFixture fx =
      ClassFixture::make(4, 2, svm::Kernel::linear(), 2026);
  const auto cfg = SchemeConfig::silent();
  const ClassificationServer server(fx.model, fx.profile, cfg);
  const ClassificationClient client(fx.profile, cfg);

  auto run = [&](std::uint64_t seed) -> std::string {
    try {
      const auto labels =
          test::classify_chunks(server, client, fx.profile, cfg,
                                Ot::kLoopback, fx.samples, 7, 2,
                                chaos_transport(seed));
      std::string out = "ok:";
      for (int l : labels) out += std::to_string(l) + ",";
      return out;
    } catch (const ProtocolError&) {
      return "protocol-error";
    }
  };
  for (std::uint64_t seed : {3u, 11u, 29u}) {
    EXPECT_EQ(run(seed), run(seed)) << "seed " << seed;
  }
}

TEST(Chaos, PrecomputedEngineAbortsWipeOtPools) {
  // Real batched-OT path: a mid-transfer disconnect must abort both
  // engines, and the abort must leave ZERO secret pad bytes behind
  // (pads_clean audits the live buffers in place).
  const crypto::DhGroup group(crypto::GroupId::kModp1024);
  auto [end_a, end_b] = net::make_channel();
  Rng rng_s(61), rng_r(62);
  crypto::SilentPadSender sender(group, rng_s);
  crypto::SilentPadReceiver receiver(group, rng_r);

  std::thread peer([&receiver, &b = end_b] { receiver.reserve(b, 2, 4); });
  sender.reserve(end_a, 2, 4);
  peer.join();
  ASSERT_GE(sender.ledger_available(), 4u);
  ASSERT_FALSE(sender.pads_clean());  // live key material present

  // Tear the link down mid-protocol, as an injected disconnect would.
  end_a.close();
  const auto msgs = std::vector<Bytes>{Bytes{1, 2}, Bytes{3, 4}};
  try {
    sender.send(end_a, msgs, 1);
    FAIL() << "send over a closed channel must throw";
  } catch (const ProtocolError&) {
    sender.abort();
  }
  try {
    const std::vector<std::size_t> want{0};
    (void)receiver.receive(end_b, want, 2, 2);
    FAIL() << "receive over a closed channel must throw";
  } catch (const ProtocolError&) {
    receiver.abort();
  }

  EXPECT_TRUE(sender.aborted());
  EXPECT_TRUE(receiver.aborted());
  EXPECT_TRUE(sender.pads_clean());
  EXPECT_TRUE(receiver.pads_clean());
  EXPECT_THROW(sender.send(end_a, msgs, 1), ProtocolError);
}

/// Attempt deadline of the two silent-engine sweeps. Every attempt opens
/// with a full seed agreement on fresh engines, so the deadline must cover
/// one, or attempts end in TimeoutError instead of on a fault. A cold
/// one-query session (seed agreement included) took 0.54-0.66 s under tsan
/// on an idle 4-core x86-64 host, at either group, and 0.4-0.5 s in
/// release; ctest runs four tests at once, so the deadline allows about
/// seven such sessions. A frame the fault schedule drops costs one whole
/// deadline.
constexpr std::chrono::milliseconds kSilentAttemptDeadline{5000};

/// Runs a silent-engine classification sweep over fault seeds 1..4 (one
/// query per session) and returns each seed's outcome, "ok" or
/// "protocol-error", space-separated. Successful seeds must match the
/// fault-free baseline.
std::string silent_sweep(const ClassFixture& fx, const SchemeConfig& cfg,
                         std::uint64_t session_seed) {
  const ClassificationServer server(fx.model, fx.profile, cfg);
  const ClassificationClient client(fx.profile, cfg);
  const std::vector<int> baseline = test::classify_chunks(
      server, client, fx.profile, cfg, Ot::kSilent, fx.samples, session_seed,
      1);
  std::string outcomes;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    ChaosOptions chaos = chaos_transport(seed);
    chaos.recv_timeout = kSilentAttemptDeadline;
    try {
      EXPECT_EQ(test::classify_chunks(server, client, fx.profile, cfg,
                                      Ot::kSilent, fx.samples, session_seed, 1,
                                      chaos),
                baseline);
      outcomes += "ok ";
    } catch (const ProtocolError&) {
      outcomes += "protocol-error ";
    }
  }
  outcomes.pop_back();
  std::printf("silent sweep outcomes (seeds 1-4): %s\n", outcomes.c_str());
  return outcomes;
}

TEST(Chaos, SilentEngineSurvivesShortFaultSweep) {
  // The silent PPRF offline phase through the full session layer under
  // faults: aborted sessions must retry on FRESH engines (a half-consumed
  // correction ledger is never resumed) and still match the baseline.
  ClassFixture fx = ClassFixture::make(2, 1, svm::Kernel::linear(), 2029);
  SchemeConfig cfg = SchemeConfig::silent();
  cfg.ompe.q = 2;
  cfg.ompe.k = 2;
  const std::string outcomes = silent_sweep(fx, cfg, 17);
  // With the deadline covering the seed agreement, the retries pull
  // seeds through.
  EXPECT_NE(outcomes.find("ok"), std::string::npos) << outcomes;
}

TEST(Chaos, SilentAbortsWipeOverFaultyChannels) {
  // Every seed runs silent batched engines over faulty channels, and every
  // disconnect-triggered abort must leave the frontier seeds, staged
  // corrections and unconsumed pads provably zeroed. ot_abort_audit()
  // proves aborts == wiped == frontier wipes across the whole sweep.
  const crypto::DhGroup group(crypto::GroupId::kModp1024);
  const crypto::OtAbortAudit& audit = crypto::ot_abort_audit();
  const std::uint64_t aborts0 = audit.aborts.load();
  const std::uint64_t wiped0 = audit.wiped.load();
  const std::uint64_t frontier0 = audit.frontier_wipes.load();

  const std::vector<Bytes> msgs{Bytes{1, 2}, Bytes{3, 4}, Bytes{5, 6},
                                Bytes{7, 8}};
  std::uint64_t silent_aborts = 0;
  const std::size_t seeds = chaos_seed_count();
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed) +
                 " (rerun with this seed to reproduce)");
    auto [clean_a, clean_b] = net::make_channel();
    test::Faulty<net::Endpoint> end_a(chaos_faults(), seed,
                                      std::move(clean_a));
    test::Faulty<net::Endpoint> end_b(chaos_faults(), splitmix64(seed, 1),
                                      std::move(clean_b));
    end_a.set_recv_deadline(net::Deadline::after(std::chrono::seconds(5)));
    end_b.set_recv_deadline(net::Deadline::after(std::chrono::seconds(5)));

    Rng rng_s(splitmix64(seed, 2)), rng_r(splitmix64(seed, 3));
    crypto::SilentPadSender sender(group, rng_s);
    crypto::SilentPadReceiver receiver(group, rng_r);

    bool sender_aborted = false, receiver_aborted = false;
    std::thread peer([&] {
      try {
        for (int round = 0; round < 3; ++round) {
          const std::vector<std::size_t> want{static_cast<std::size_t>(round)};
          (void)receiver.receive(end_b, want, msgs.size(), 2);
        }
      } catch (const Error&) {
        receiver.abort();
        receiver_aborted = true;
        try {
          end_b.close();  // unblock the sender
        } catch (...) {
        }
      }
    });
    try {
      for (int round = 0; round < 3; ++round) sender.send(end_a, msgs, 1);
    } catch (const Error&) {
      sender.abort();
      sender_aborted = true;
      try {
        end_a.close();
      } catch (...) {
      }
    }
    peer.join();

    if (sender_aborted) {
      ++silent_aborts;
      EXPECT_TRUE(sender.frontier_clean());
      EXPECT_TRUE(sender.pads_clean());
    }
    if (receiver_aborted) {
      ++silent_aborts;
      EXPECT_TRUE(receiver.frontier_clean());
      EXPECT_TRUE(receiver.pads_clean());
    }
  }
  EXPECT_EQ(audit.aborts.load(), aborts0 + silent_aborts);
  EXPECT_EQ(audit.wiped.load(), wiped0 + silent_aborts);
  EXPECT_EQ(audit.frontier_wipes.load(), frontier0 + silent_aborts);
}

TEST(Chaos, SecureEngineSurvivesShortFaultSweep) {
  // A few seeds through the REAL crypto stack (the silent OT engine over
  // modp1024): exercises the session-layer ot.abort() paths and fresh-engine
  // retry under faults. Kept small — each attempt costs exponentiations.
  ClassFixture fx = ClassFixture::make(2, 1, svm::Kernel::linear(), 2027);
  SchemeConfig cfg;
  cfg.group = crypto::GroupId::kModp1024;
  cfg.ompe.q = 2;
  cfg.ompe.k = 2;
  const std::string outcomes = silent_sweep(fx, cfg, 9);
  EXPECT_NE(outcomes.find("ok"), std::string::npos) << outcomes;
}

}  // namespace
}  // namespace ppds::core
