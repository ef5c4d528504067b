#include "ppds/core/session.hpp"

#include <gtest/gtest.h>

#include <future>

#include "ppds/crypto/sha256.hpp"
#include "ppds/net/party.hpp"

namespace ppds::core {
namespace {

svm::SvmModel toy_model() {
  return svm::SvmModel(svm::Kernel::linear(), {{0.8, -0.6}}, {1.0}, 0.1);
}

TEST(ProtocolDigest, DeterministicAndParameterSensitive) {
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const auto cfg = SchemeConfig::fast_simulation();
  EXPECT_EQ(protocol_digest(profile, cfg), protocol_digest(profile, cfg));

  auto other_cfg = cfg;
  other_cfg.ompe.q += 1;
  EXPECT_NE(protocol_digest(profile, cfg), protocol_digest(profile, other_cfg));

  const auto other_profile =
      ClassificationProfile::make(3, svm::Kernel::linear());
  EXPECT_NE(protocol_digest(profile, cfg),
            protocol_digest(other_profile, cfg));

  const auto poly_profile =
      ClassificationProfile::make(2, svm::Kernel::paper_polynomial(2));
  EXPECT_NE(protocol_digest(profile, cfg), protocol_digest(poly_profile, cfg));
}

/// Oracle: the whole parameter stream serialized into one buffer and hashed
/// in one shot, independent of the midstate protocol_digest() finishes. The
/// profile keeps only its DAG, so the exponent stream is regenerated here
/// from the basis degree (0 for the linear kernel: no basis).
crypto::Digest full_stream_digest(const ClassificationProfile& profile,
                                  unsigned basis_degree,
                                  const SchemeConfig& config) {
  const std::vector<math::Exponents> monomials =
      math::monomials_up_to(profile.input_dim, basis_degree);
  ByteWriter w;
  w.u32(3);  // protocol version
  w.u64(profile.input_dim);
  w.u64(profile.poly_arity);
  profile.kernel.serialize(w);
  w.u64(monomials.size());
  for (const math::Exponents& exps : monomials) w.raw(exps);
  w.u8(static_cast<std::uint8_t>(config.ot_engine));
  w.u8(static_cast<std::uint8_t>(config.group));
  w.u8(config.ot_engine == OtEngine::kPrecomputed ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(config.ompe.backend));
  w.u32(config.ompe.q);
  w.u32(config.ompe.k);
  w.u32(ompe::kFracBits);
  w.f64(ompe::kNodeLo);
  w.f64(ompe::kNodeHi);
  return crypto::sha256(w.data());
}

TEST(ProtocolDigest, MatchesFullParameterStream) {
  const std::vector<ClassificationProfile> profiles{
      ClassificationProfile::make(5, svm::Kernel::linear()),
      ClassificationProfile::make(10, svm::Kernel::paper_polynomial(10, 2)),
      ClassificationProfile::make(12, svm::Kernel::paper_polynomial(12, 3)),
      ClassificationProfile::make(4, svm::Kernel::rbf(0.5), 6),
      ClassificationProfile::make(3, svm::Kernel::sigmoid(0.2, -0.1), 3)};
  // The kernel degree or Taylor order each profile was built with.
  const std::vector<unsigned> basis_degrees{0, 2, 3, 6, 3};
  auto field = SchemeConfig::fast_simulation();
  field.ompe.backend = ompe::Backend::kField;
  const std::vector<SchemeConfig> configs{
      SchemeConfig::fast_simulation(), SchemeConfig::secure_default(),
      SchemeConfig::silent(), field};
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      SCOPED_TRACE(testing::Message() << "profile " << p << ", config " << c);
      const crypto::Digest expected =
          full_stream_digest(profiles[p], basis_degrees[p], configs[c]);
      EXPECT_EQ(protocol_digest(profiles[p], configs[c]), expected);
      // Servers and clients hold copies of the profile.
      const ClassificationProfile copy = profiles[p];
      EXPECT_EQ(protocol_digest(copy, configs[c]), expected);
      ClassificationProfile moved_from = profiles[p];
      const ClassificationProfile moved = std::move(moved_from);
      EXPECT_EQ(protocol_digest(moved, configs[c]), expected);
    }
  }
  // The degree-3 basis is non-trivial, so the exponent stream is really
  // exercised: the C(15, 3) - 1 monomials of degree 1..3 in 12 variables.
  EXPECT_EQ(math::monomials_up_to(12, 3).size(), 454u);
  EXPECT_EQ(profiles[2].poly_arity, 454u);
}

TEST(ProtocolDigest, RejectsProfileNotBuiltByMake) {
  const ClassificationProfile unbuilt;
  EXPECT_THROW(protocol_digest(unbuilt, SchemeConfig::fast_simulation()),
               InvalidArgument);
}

TEST(ProtocolDigest, SilentPrecomputeIsHashed) {
  // The silent engine and the loopback simulation put different bytes on
  // the wire at the same OMPE shape, so parties must agree on the engine.
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const auto cfg = SchemeConfig::fast_simulation();
  const auto silent = SchemeConfig::silent();
  EXPECT_NE(protocol_digest(profile, cfg), protocol_digest(profile, silent));

  const auto space = DataSpace{};
  EXPECT_NE(similarity_digest(svm::Kernel::linear(), space, cfg),
            similarity_digest(svm::Kernel::linear(), space, silent));
}

TEST(Session, AgreedParametersClassifyEndToEnd) {
  const auto model = toy_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  ClassificationServer server(model, profile, cfg);
  ClassificationClient client(profile, cfg);
  const std::vector<std::vector<double>> samples{
      {0.5, 0.1}, {-0.4, 0.9}, {0.2, -0.7}};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        serve_session(server, profile, cfg, ch, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        return classify_session(client, profile, cfg, ch, samples, rng);
      });
  ASSERT_EQ(outcome.b.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i]));
  }
}

TEST(Session, ConcurrentSilentSessionsMatchPlain) {
  // Real crypto path: two sessions of the silent OT engine at once, on two
  // threads sharing the process-wide modp1024 group and its fixed-base
  // tables. Each must return the plaintext labels.
  Rng rng(321);
  math::Vec w(4);
  for (auto& v : w) v = rng.uniform_nonzero(-1.0, 1.0, 0.05);
  const svm::SvmModel model(svm::Kernel::linear(), {w}, {1.0},
                            rng.uniform(-0.2, 0.2));
  const auto profile = ClassificationProfile::make(4, model.kernel());
  std::vector<std::vector<double>> samples(4, std::vector<double>(4));
  for (auto& sample : samples) {
    for (auto& v : sample) v = rng.uniform(-1.0, 1.0);
  }
  SchemeConfig cfg;
  cfg.ot_engine = OtEngine::kPrecomputed;
  cfg.group = crypto::GroupId::kModp1024;
  cfg.ompe.q = 2;
  cfg.ompe.k = 2;
  const ClassificationServer server(model, profile, cfg);
  const ClassificationClient client(profile, cfg);

  // Session s classifies samples [2s, 2s + 2).
  const auto session = [&](std::size_t s) {
    const std::vector<std::vector<double>> chunk(
        samples.begin() + static_cast<std::ptrdiff_t>(2 * s),
        samples.begin() + static_cast<std::ptrdiff_t>(2 * s + 2));
    return net::run_two_party(
               [&](net::Endpoint& ch) {
                 Rng server_rng(10 + s);
                 serve_session(server, profile, cfg, ch, server_rng);
                 return 0;
               },
               [&](net::Endpoint& ch) {
                 Rng client_rng(20 + s);
                 return classify_session(client, profile, cfg, ch, chunk,
                                         client_rng);
               })
        .b;
  };
  auto first = std::async(std::launch::async, session, 0);
  auto second = std::async(std::launch::async, session, 1);
  const std::vector<std::vector<int>> labels{first.get(), second.get()};
  for (std::size_t s = 0; s < 2; ++s) {
    ASSERT_EQ(labels[s].size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(labels[s][i], model.predict(samples[2 * s + i]))
          << "sample " << 2 * s + i;
    }
  }
}

TEST(Session, ParameterMismatchDeniedOnBothSides) {
  const auto model = toy_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto server_cfg = SchemeConfig::fast_simulation();
  auto client_cfg = server_cfg;
  client_cfg.ompe.q = server_cfg.ompe.q + 2;  // drifted parameter

  ClassificationServer server(model, profile, server_cfg);
  ClassificationClient client(profile, client_cfg);
  const std::vector<std::vector<double>> samples{{0.5, 0.1}};
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            serve_session(server, profile, server_cfg, ch, rng);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            try {
              classify_session(client, profile, client_cfg, ch, samples, rng);
            } catch (const ProtocolError&) {
              return 1;  // client saw the denial, as designed
            }
            return 0;
          }),
      ProtocolError);  // the server side also throws
}

TEST(Session, BadMagicRejected) {
  const auto model = toy_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  ClassificationServer server(model, profile, cfg);
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            serve_session(server, profile, cfg, ch, rng);
            return 0;
          },
          [&](net::Endpoint& ch) {
            ch.send(Bytes{'N', 'O', 'P', 'E'});
            try {
              ch.recv();
            } catch (const ProtocolError&) {
            }
            return 0;
          }),
      ProtocolError);
}

TEST(Session, ExcessiveQueryCountRejected) {
  const auto model = toy_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  ClassificationServer server(model, profile, cfg);
  ClassificationClient client(profile, cfg);
  const std::vector<std::vector<double>> samples{{0.5, 0.1}, {0.2, 0.2}};
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            serve_session(server, profile, cfg, ch, rng, /*max_queries=*/1);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            try {
              classify_session(client, profile, cfg, ch, samples, rng);
            } catch (const ProtocolError&) {
            }
            return 0;
          }),
      ProtocolError);
}

TEST(SimilaritySession, AgreedParametersEvaluate) {
  const DataSpace space;
  const auto cfg = SchemeConfig::fast_simulation();
  const svm::SvmModel a(svm::Kernel::linear(), {{1.0, 0.2}}, {1.0}, 0.1);
  const svm::SvmModel b(svm::Kernel::linear(), {{0.8, 0.5}}, {1.0}, -0.2);
  SimilarityServer server(a, space, cfg);
  SimilarityClient client(b, space, cfg);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        serve_similarity_session(server, svm::Kernel::linear(), space, cfg,
                                 ch, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        return evaluate_similarity_session(client, svm::Kernel::linear(),
                                           space, cfg, ch, rng);
      });
  EXPECT_NEAR(outcome.b, ordinary_similarity(a, b, space),
              1e-6 + 1e-3 * outcome.b);
}

TEST(SimilaritySession, DataSpaceMismatchDenied) {
  const DataSpace space_a;
  DataSpace space_b;
  space_b.l0 = 1e-2;  // drifted public constant
  const auto cfg = SchemeConfig::fast_simulation();
  const svm::SvmModel a(svm::Kernel::linear(), {{1.0, 0.2}}, {1.0}, 0.1);
  const svm::SvmModel b(svm::Kernel::linear(), {{0.8, 0.5}}, {1.0}, -0.2);
  SimilarityServer server(a, space_a, cfg);
  SimilarityClient client(b, space_b, cfg);
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            serve_similarity_session(server, svm::Kernel::linear(), space_a,
                                     cfg, ch, rng);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            try {
              evaluate_similarity_session(client, svm::Kernel::linear(),
                                          space_b, cfg, ch, rng);
            } catch (const ProtocolError&) {
            }
            return 0.0;
          }),
      ProtocolError);
}

TEST(SimilaritySession, DigestSeparatedFromClassification) {
  // Same config must hash differently for the two protocols (domain tag).
  const auto cfg = SchemeConfig::fast_simulation();
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const DataSpace space;
  EXPECT_NE(protocol_digest(profile, cfg),
            similarity_digest(svm::Kernel::linear(), space, cfg));
}

}  // namespace
}  // namespace ppds::core
