#include <gtest/gtest.h>

#include "ppds/data/kstest.hpp"
#include "ppds/net/party.hpp"
#include "ppds/ompe/ompe.hpp"
#include "../support/loopback_ot.hpp"

/// Statistical Level-1 privacy checks of the OMPE request: what Alice sees
/// must not depend (distinguishably) on Bob's secret input. We capture the
/// raw wire values of many protocol runs for two DIFFERENT inputs and test
/// the two samples for distributional equality with the two-sample
/// Kolmogorov-Smirnov machinery from the data module.

namespace ppds::ompe {
namespace {

/// Captures the z-payload (all cover/disguise values) of one request.
std::vector<double> capture_request_values(const std::vector<double>& alpha,
                                           const OmpeParams& params,
                                           std::uint64_t seed) {
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        ch.set_stage(net::Stage::kOmpeRequest);  // mirror the receiver
        Bytes request = ch.recv();
        ch.close();
        return request;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        test::LoopbackReceiver ot;
        try {
          return run_receiver(ch, alpha, params, ot, rng);
        } catch (const ProtocolError&) {
          return 0.0;
        }
      });
  ByteReader r(outcome.a);
  r.u8();   // version
  r.u8();   // backend
  const std::uint64_t arity = r.u64();
  const std::uint64_t big_m = r.u64();
  r.u64();  // m
  std::vector<double> values;
  for (std::uint64_t i = 0; i < big_m; ++i) {
    r.f64();  // node
    for (std::uint64_t j = 0; j < arity; ++j) values.push_back(r.f64());
  }
  r.expect_end();
  return values;
}

TEST(OmpePrivacy, RequestDistributionIndependentOfSecretInput) {
  // Two very different inputs; aggregate wire values over many runs.
  OmpeParams params;
  params.q = 4;
  params.k = 2;
  const std::vector<double> alpha_a{0.9, 0.9};
  const std::vector<double> alpha_b{-0.9, 0.05};
  std::vector<double> wire_a, wire_b;
  for (int run = 0; run < 40; ++run) {
    const auto va = capture_request_values(alpha_a, params, 1000 + run);
    const auto vb = capture_request_values(alpha_b, params, 5000 + run);
    wire_a.insert(wire_a.end(), va.begin(), va.end());
    wire_b.insert(wire_b.end(), vb.begin(), vb.end());
  }
  ASSERT_GT(wire_a.size(), 500u);
  // The cover polynomials' random coefficients dominate the evaluations; a
  // KS statistic near 0 means Alice cannot tell the inputs apart from the
  // value distribution. (With ~800 samples per side, D < 0.08 is well
  // inside the alpha = 0.1% acceptance region.)
  const double d = data::ks_statistic(wire_a, wire_b);
  EXPECT_LT(d, 0.08) << "wire value distributions are distinguishable";
}

TEST(OmpePrivacy, KeptPositionsLookUniform) {
  // The receiver's secret index set I must be uniform over positions; we
  // read the positions directly from the Rng (same draw the protocol makes)
  // and check coverage statistics.
  OmpeParams params;
  params.q = 4;
  params.k = 3;
  const std::size_t m = params.m();
  const std::size_t big_m = params.big_m();
  std::vector<int> hits(big_m, 0);
  const int runs = 3000;
  for (int run = 0; run < runs; ++run) {
    Rng rng(run);
    for (std::size_t idx : rng.sample_indices(big_m, m)) hits[idx] += 1;
  }
  const double expected = static_cast<double>(runs) * m / big_m;
  for (std::size_t i = 0; i < big_m; ++i) {
    EXPECT_NEAR(hits[i], expected, expected * 0.12) << "position " << i;
  }
}

/// OtReceiver wrapper that logs every retrieved value.
struct RecordingReceiver : crypto::OtReceiver {
  test::LoopbackReceiver inner;
  std::vector<Bytes> log;

  std::vector<Bytes> receive(net::Endpoint& ch,
                             std::span<const std::size_t> indices,
                             std::size_t n, std::size_t len) override {
    auto out = inner.receive(ch, indices, n, len);
    log.insert(log.end(), out.begin(), out.end());
    return out;
  }
};

TEST(OmpePrivacy, MaskedValuesChangeWhenSecretPolynomialFixed) {
  // Same secret, same input, SAME receiver randomness, different sender
  // randomness: the masked values Bob retrieves must differ run to run
  // (fresh h per query) even though they decode to the same B(0) —
  // otherwise a replaying client could build a dictionary of the masked
  // polynomial across queries.
  const std::vector<double> w{0.7, -0.2};
  OmpeParams params;
  params.q = 2;
  params.k = 2;
  const std::vector<double> alpha{0.25, -0.5};
  std::vector<std::vector<Bytes>> retrieved(2);
  for (int run = 0; run < 2; ++run) {
    RecordingReceiver recorder;
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(7000 + run);  // fresh sender mask each run
          test::LoopbackSender ot;
          run_sender(ch, w, 0.4, params, ot, rng);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(42);  // identical receiver randomness both runs
          return run_receiver(ch, alpha, params, recorder, rng);
        });
    EXPECT_NEAR(outcome.b, 0.7 * 0.25 - 0.2 * -0.5 + 0.4, 1e-9);
    retrieved[run] = recorder.log;
  }
  ASSERT_EQ(retrieved[0].size(), retrieved[1].size());
  ASSERT_FALSE(retrieved[0].empty());
  // Every retrieved masked value differs across the two runs.
  for (std::size_t i = 0; i < retrieved[0].size(); ++i) {
    EXPECT_NE(retrieved[0][i], retrieved[1][i]) << "value " << i;
  }
}

}  // namespace
}  // namespace ppds::ompe
