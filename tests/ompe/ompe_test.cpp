#include "ppds/ompe/ompe.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ppds/math/multipoly.hpp"
#include "ppds/net/party.hpp"

namespace ppds::ompe {
namespace {

/// Runs one complete OMPE evaluation over a fresh channel with loopback OT:
/// the sender serves \p secret linearized over its monomial basis, the
/// receiver holds the basis features of \p alpha.
double run_ompe(const math::MultiPoly& secret, const std::vector<double>& alpha,
                const OmpeParams& params, std::uint64_t seed = 7) {
  const auto basis = math::monomials_up_to(secret.arity(),
                                           std::max(1u, secret.total_degree()));
  const math::LinearExpansion form = math::linearize(secret, basis);
  const std::vector<double> features = math::monomial_transform(basis, alpha);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        crypto::LoopbackSender ot;
        run_sender(ch, form.coeffs, form.constant, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed + 1);
        crypto::LoopbackReceiver ot;
        return run_receiver(ch, features, params, ot, rng);
      });
  return outcome.b;
}

TEST(Ompe, LinearPolynomialRealBackend) {
  const auto p = math::MultiPoly::affine({0.5, -2.0, 1.0}, 0.75);
  OmpeParams params;
  const std::vector<double> alpha{0.3, -0.1, 0.9};
  EXPECT_NEAR(run_ompe(p, alpha, params), p.evaluate(alpha), 1e-9);
}

TEST(Ompe, LinearPolynomialFieldBackendExactGrid) {
  const auto p = math::MultiPoly::affine({0.5, -2.0, 1.0}, 0.75);
  OmpeParams params;
  params.backend = Backend::kField;
  const std::vector<double> alpha{0.25, -0.125, 0.5};  // exact on the grid
  EXPECT_NEAR(run_ompe(p, alpha, params), p.evaluate(alpha), 1e-5);
}

TEST(Ompe, HighDegreePolynomialRealBackend) {
  // Eq. (7)-shaped bivariate degree-4 polynomial.
  math::MultiPoly p(2);
  p.add_term(0.5, {2, 2});
  p.add_term(-1.5, {2, 0});
  p.add_term(0.75, {0, 2});
  p.add_term(2.0, {1, 1});
  p.add_constant(-0.3);
  OmpeParams params;
  const std::vector<double> alpha{0.7, -1.3};
  // Served as a linear form over the 14 monomials of degree 1..4, so the
  // interpolation is degree q = 8, not 32.
  const double expect = p.evaluate(alpha);
  EXPECT_NEAR(run_ompe(p, alpha, params), expect,
              1e-6 + 1e-3 * std::abs(expect));
}

class OmpeQParam : public ::testing::TestWithParam<unsigned> {};

// Property: correctness is independent of the security parameter q.
TEST_P(OmpeQParam, CorrectAcrossSecurityParameters) {
  const auto p = math::MultiPoly::affine({1.5, -0.5}, -0.25);
  OmpeParams params;
  params.q = GetParam();
  const std::vector<double> alpha{0.6, 0.8};
  EXPECT_NEAR(run_ompe(p, alpha, params, 100 + params.q),
              p.evaluate(alpha), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(SecurityQ, OmpeQParam,
                         ::testing::Values(1, 2, 4, 8, 12, 16));

class OmpeKParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(OmpeKParam, CorrectAcrossCoverBlowups) {
  const auto p = math::MultiPoly::affine({-0.7, 0.3}, 0.9);
  OmpeParams params;
  params.k = GetParam();
  const std::vector<double> alpha{-0.4, 0.2};
  if (params.k < 2) {
    // k = 1 sends only genuine pairs: the sender could interpolate alpha
    // itself, so both roles refuse the shape before touching the channel.
    EXPECT_THROW(run_ompe(p, alpha, params, 200 + params.k), InvalidArgument);
    return;
  }
  EXPECT_NEAR(run_ompe(p, alpha, params, 200 + params.k),
              p.evaluate(alpha), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(CoverK, OmpeKParam, ::testing::Values(1, 2, 3, 5, 8));

TEST(Ompe, FieldBackendSignExactForTinyMargins) {
  // The reason the exact backend exists: near-zero decision values must
  // still classify by sign. 2^-18 is representable at frac_bits = 20.
  OmpeParams params;
  params.backend = Backend::kField;
  const double tiny = std::pow(2.0, -18.0);
  for (double sign : {1.0, -1.0}) {
    const auto p = math::MultiPoly::affine({1.0}, sign * tiny);
    const double got = run_ompe(p, {0.0}, params);
    EXPECT_EQ(got > 0, sign > 0);
    EXPECT_NEAR(got, sign * tiny, 1e-9);
  }
}

TEST(OmpeValidate, RejectsShapesThatHideNothing) {
  OmpeParams params;
  params.q = 0;  // every cover is the constant alpha
  EXPECT_THROW(validate(params), InvalidArgument);
  params.q = 8;
  params.k = 1;  // every pair is genuine
  EXPECT_THROW(validate(params), InvalidArgument);
  params.q = 31;
  params.k = 9;  // M = 288 > kMaxDirectArity
  EXPECT_THROW(validate(params), InvalidArgument);
  params.k = 8;  // M = 256: the largest direct OT arity
  EXPECT_NO_THROW(validate(params));
  EXPECT_NO_THROW(validate(OmpeParams{}));
}

TEST(OmpeValidate, BothRolesRefuseBeforeTouchingTheChannel) {
  OmpeParams params;
  params.k = 1;
  auto [a, b] = net::make_channel();
  Rng rng(3);
  crypto::LoopbackSender sender;
  crypto::LoopbackReceiver receiver;
  const std::vector<double> v{0.5};
  EXPECT_THROW(run_sender(a, v, 0.0, params, sender, rng), InvalidArgument);
  EXPECT_THROW(run_receiver(b, v, params, receiver, rng), InvalidArgument);
  EXPECT_EQ(a.stats().messages, 0u);
  EXPECT_EQ(b.stats().messages, 0u);
}

TEST(Ompe, WireFormatMatchesCostModel) {
  // Bob ships M = (q+1)k pairs of (node, r-vector): (1 + arity) doubles
  // each, plus the header.
  const std::vector<double> w{1.0, 2.0, 3.0};
  OmpeParams params;
  params.q = 4;
  params.k = 3;
  const std::vector<double> alpha{0.1, 0.2, 0.3};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        crypto::LoopbackSender ot;
        run_sender(ch, w, 0.0, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        crypto::LoopbackReceiver ot;
        return run_receiver(ch, alpha, params, ot, rng);
      });
  const std::size_t big_m = (4 + 1) * 3;
  const std::size_t header = 1 + 1 + 8 + 8 + 8;
  EXPECT_EQ(outcome.b_sent.bytes, header + big_m * (1 + 3) * 8);
  // Sender's loopback OT ships all M values of 8 bytes.
  EXPECT_EQ(outcome.a_sent.bytes, big_m * 8u);
}

TEST(Ompe, SenderRejectsMismatchedRequest) {
  // Receiver claims a different arity than the sender's polynomial.
  const std::vector<double> w{1.0, 2.0};
  OmpeParams params;
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            crypto::LoopbackSender ot;
            run_sender(ch, w, 0.0, params, ot, rng);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            crypto::LoopbackReceiver ot;
            const std::vector<double> alpha{0.1, 0.2, 0.3};
            return run_receiver(ch, alpha, params, ot, rng);
          }),
      ProtocolError);
}

TEST(Ompe, SenderRejectsRepeatedNodes) {
  const std::vector<double> w{1.0};
  OmpeParams params;
  params.q = 1;
  params.k = 2;
  // Hand-craft a malformed request with duplicate nodes.
  auto outcome_error = [&]() {
    net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(1);
          crypto::LoopbackSender ot;
          run_sender(ch, w, 0.0, params, ot, rng);
          return 0;
        },
        [&](net::Endpoint& ch) {
          ByteWriter req;
          req.u8(2);   // version
          req.u8(0);   // real backend
          req.u64(1);  // arity
          req.u64(4);  // M
          req.u64(2);  // m
          for (int i = 0; i < 4; ++i) {
            req.f64(0.5);  // duplicate node
            req.f64(0.1);
          }
          ch.send(req.take());
          ch.recv();
          return 0;
        });
  };
  EXPECT_THROW(outcome_error(), ProtocolError);
}

TEST(Ompe, ResultWithNaorPinkasOtMatches) {
  // Full cryptographic stack once: the private OT engine, whose silent
  // extension is seeded by one batched Naor-Pinkas round trip.
  const auto p = math::MultiPoly::affine({0.9, -0.4}, 0.2);
  OmpeParams params;
  params.q = 2;
  params.k = 2;
  const crypto::DhGroup group(crypto::GroupId::kModp1024);
  const std::vector<double> alpha{0.5, -0.5};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(11);
        crypto::BatchedOtSender ot(group, rng);
        run_sender(ch, std::vector<double>{0.9, -0.4}, 0.2, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(12);
        crypto::BatchedOtReceiver ot(group, rng);
        return run_receiver(ch, alpha, params, ot, rng);
      });
  EXPECT_NEAR(outcome.b, p.evaluate(alpha), 1e-9);
}

// Privacy smoke property: across repeated runs with the same alpha, the
// values Bob sends to Alice differ (fresh covers), so Alice cannot key on
// repeated queries.
TEST(Ompe, RequestsAreRerandomizedPerRun) {
  OmpeParams params;
  const std::vector<double> alpha{0.33, -0.77};
  Bytes first, second;
  for (int run = 0; run < 2; ++run) {
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          // Capture the request rather than serving it, then close so the
          // receiver's pending OT read aborts instead of deadlocking.
          ch.set_stage(net::Stage::kOmpeRequest);  // mirror the receiver
          Bytes request = ch.recv();
          ch.close();
          return request;
        },
        [&](net::Endpoint& ch) {
          Rng rng(500 + run);
          crypto::LoopbackReceiver ot;
          try {
            return run_receiver(ch, alpha, params, ot, rng);
          } catch (const ProtocolError&) {
            return 0.0;  // channel closed after capture — expected
          }
        });
    (run == 0 ? first : second) = outcome.a;
  }
  EXPECT_EQ(first.size(), second.size());
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace ppds::ompe
