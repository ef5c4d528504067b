#include "ppds/core/config.hpp"

#include <gtest/gtest.h>

#include "ppds/net/party.hpp"

namespace ppds::core {
namespace {

TEST(SchemeConfig, DefaultsAreSecure) {
  const SchemeConfig cfg = SchemeConfig::secure_default();
  EXPECT_EQ(cfg.ot_engine, OtEngine::kPrecomputed);
  EXPECT_EQ(cfg.group, crypto::GroupId::kModp1536);
  EXPECT_EQ(cfg.ompe.backend, ompe::Backend::kReal);
  EXPECT_EQ(cfg.ompe.q, 8u);
  EXPECT_EQ(cfg.ompe.k, 3u);
}

TEST(SchemeConfig, FastSimulationUsesLoopback) {
  const SchemeConfig cfg = SchemeConfig::fast_simulation();
  EXPECT_EQ(cfg.ot_engine, OtEngine::kLoopback);
  EXPECT_LT(cfg.ompe.q, SchemeConfig::secure_default().ompe.q);
}

TEST(OmpeParams, CostModel) {
  ompe::OmpeParams params;
  params.q = 8;
  params.k = 3;
  EXPECT_EQ(params.m(), 9u);      // q + 1: every evaluation is degree 1
  EXPECT_EQ(params.big_m(), 27u);  // m * k
}

TEST(OtDemand, DirectSlotsWhenArityFits) {
  ompe::OmpeParams params;
  params.q = 4;
  params.k = 2;
  // m = 5, M = 10 <= 256 -> 5 direct 1-of-10 slots, i.e. 5 offline
  // exponentiations per query.
  const OtDemand d = ot_demand_per_query(params);
  EXPECT_EQ(d.arity, 10u);
  EXPECT_EQ(d.count, 5u);
}

TEST(OtDemand, RejectsArityAboveDirectBound) {
  ompe::OmpeParams params;
  params.q = 32;
  params.k = 8;
  // m = 33, M = 264 > 256: no direct 1-of-M slot exists, and the shape is
  // refused up front instead of falling back to bit decomposition.
  EXPECT_THROW(ot_demand_per_query(params), InvalidArgument);
}

TEST(OtBundle, LoopbackReadyImmediately) {
  Rng rng(1);
  OtBundle bundle(SchemeConfig::fast_simulation(), rng);
  EXPECT_NO_THROW(bundle.sender());
  EXPECT_NO_THROW(bundle.receiver());
}

TEST(OtBundle, PrecomputedReadyImmediately) {
  // The private engines run their seed agreement and stage slots on the
  // first transfer, so the bundle is usable even before
  // prepare_sender()/prepare_receiver().
  Rng rng(2);
  SchemeConfig cfg;
  cfg.ot_engine = OtEngine::kPrecomputed;
  OtBundle bundle(cfg, rng);
  EXPECT_NO_THROW(bundle.sender());
  EXPECT_NO_THROW(bundle.receiver());
}

TEST(OtBundle, PrecomputedTransfersWithoutPrepare) {
  SchemeConfig cfg;
  cfg.ot_engine = OtEngine::kPrecomputed;
  cfg.group = crypto::GroupId::kModp1024;
  std::vector<Bytes> msgs{{7, 7}, {8, 8}};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(20);
        OtBundle bundle(cfg, rng);
        bundle.sender().send(ch, msgs, 1);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(21);
        OtBundle bundle(cfg, rng);
        const std::vector<std::size_t> want{1};
        return bundle.receiver().receive(ch, want, 2, 2);
      });
  ASSERT_EQ(outcome.b.size(), 1u);
  EXPECT_EQ(outcome.b[0], (Bytes{8, 8}));
}

TEST(OtBundle, PrepareIsNoOpForOtherEngines) {
  Rng rng(3);
  OtBundle bundle(SchemeConfig::fast_simulation(), rng);
  auto [a, b] = net::make_channel();
  const OtDemand demand{/*arity=*/2, /*count=*/100};
  EXPECT_NO_THROW(bundle.prepare_sender(a, demand));
  // No offline traffic was exchanged.
  EXPECT_EQ(a.stats().messages, 0u);
}

TEST(OtBundle, PreparedPairTransfers) {
  SchemeConfig cfg;
  cfg.ot_engine = OtEngine::kPrecomputed;
  cfg.group = crypto::GroupId::kModp1024;
  std::vector<Bytes> msgs{{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  const OtDemand demand{/*arity=*/4, /*count=*/1};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(4);
        OtBundle bundle(cfg, rng);
        bundle.prepare_sender(ch, demand);
        bundle.sender().send(ch, msgs, 1);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(5);
        OtBundle bundle(cfg, rng);
        bundle.prepare_receiver(ch, demand);
        const std::vector<std::size_t> want{2};
        return bundle.receiver().receive(ch, want, 4, 2);
      });
  ASSERT_EQ(outcome.b.size(), 1u);
  EXPECT_EQ(outcome.b[0], (Bytes{3, 3}));
}

}  // namespace
}  // namespace ppds::core
