#include "ppds/core/session.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <string>

#include "ppds/core/multiclass.hpp"
#include "ppds/crypto/sha256.hpp"
#include "ppds/net/party.hpp"
#include "../support/loopback_ot.hpp"

namespace ppds::core {
namespace {

svm::SvmModel toy_model() {
  return svm::SvmModel(svm::Kernel::linear(), {{0.8, -0.6}}, {1.0}, 0.1);
}

TEST(ProtocolDigest, DeterministicAndParameterSensitive) {
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const auto cfg = SchemeConfig::silent();
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
  w.u8(1);  // the pinned engine bytes
  w.u8(static_cast<std::uint8_t>(config.group));
  w.u8(1);
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
  auto field = SchemeConfig::silent();
  field.ompe.backend = ompe::Backend::kField;
  const std::vector<SchemeConfig> configs{SchemeConfig::secure_default(),
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
  EXPECT_THROW(protocol_digest(unbuilt, SchemeConfig::silent()),
               InvalidArgument);
}

TEST(Session, AgreedParametersClassifyEndToEnd) {
  const auto model = toy_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::silent();
  ClassificationServer server(model, profile, cfg);
  ClassificationClient client(profile, cfg);
  const std::vector<std::vector<double>> samples{
      {0.5, 0.1}, {-0.4, 0.9}, {0.2, -0.7}};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        OtBundle ot = test::loopback_bundle();
        serve_session(server, profile, cfg, ch, rng, 1 << 20, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        OtBundle ot = test::loopback_bundle();
        return classify_session(client, profile, cfg, ch, samples, rng, &ot);
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
                 OtBundle ot(cfg, server_rng);
                 serve_session(server, profile, cfg, ch, server_rng, 1 << 20,
                               &ot);
                 return 0;
               },
               [&](net::Endpoint& ch) {
                 Rng client_rng(20 + s);
                 OtBundle ot(cfg, client_rng);
                 return classify_session(client, profile, cfg, ch, chunk,
                                         client_rng, &ot);
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
  const auto server_cfg = SchemeConfig::silent();
  auto client_cfg = server_cfg;
  client_cfg.ompe.q = server_cfg.ompe.q + 2;  // drifted parameter

  ClassificationServer server(model, profile, server_cfg);
  ClassificationClient client(profile, client_cfg);
  const std::vector<std::vector<double>> samples{{0.5, 0.1}};
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            OtBundle ot = test::loopback_bundle();
            serve_session(server, profile, server_cfg, ch, rng, 1 << 20, &ot);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            OtBundle ot = test::loopback_bundle();
            try {
              classify_session(client, profile, client_cfg, ch, samples, rng,
                               &ot);
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
  const auto cfg = SchemeConfig::silent();
  ClassificationServer server(model, profile, cfg);
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            OtBundle ot = test::loopback_bundle();
            serve_session(server, profile, cfg, ch, rng, 1 << 20, &ot);
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
  const auto cfg = SchemeConfig::silent();
  ClassificationServer server(model, profile, cfg);
  ClassificationClient client(profile, cfg);
  const std::vector<std::vector<double>> samples{{0.5, 0.1}, {0.2, 0.2}};
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            OtBundle ot = test::loopback_bundle();
            serve_session(server, profile, cfg, ch, rng, /*max_queries=*/1,
                          &ot);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            OtBundle ot = test::loopback_bundle();
            try {
              classify_session(client, profile, cfg, ch, samples, rng, &ot);
            } catch (const ProtocolError&) {
            }
            return 0;
          }),
      ProtocolError);
}

TEST(SimilaritySession, AgreedParametersEvaluate) {
  const DataSpace space;
  const auto cfg = SchemeConfig::silent();
  const svm::SvmModel a(svm::Kernel::linear(), {{1.0, 0.2}}, {1.0}, 0.1);
  const svm::SvmModel b(svm::Kernel::linear(), {{0.8, 0.5}}, {1.0}, -0.2);
  SimilarityServer server(a, space, cfg);
  SimilarityClient client(b, space, cfg);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        OtBundle ot = test::loopback_bundle();
        serve_similarity_session(server, svm::Kernel::linear(), space, cfg,
                                 ch, rng, &ot);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        OtBundle ot = test::loopback_bundle();
        return evaluate_similarity_session(client, svm::Kernel::linear(),
                                           space, cfg, ch, rng, &ot);
      });
  EXPECT_NEAR(outcome.b, ordinary_similarity(a, b, space),
              1e-6 + 1e-3 * outcome.b);
}

TEST(SimilaritySession, DataSpaceMismatchDenied) {
  const DataSpace space_a;
  DataSpace space_b;
  space_b.l0 = 1e-2;  // drifted public constant
  const auto cfg = SchemeConfig::silent();
  const svm::SvmModel a(svm::Kernel::linear(), {{1.0, 0.2}}, {1.0}, 0.1);
  const svm::SvmModel b(svm::Kernel::linear(), {{0.8, 0.5}}, {1.0}, -0.2);
  SimilarityServer server(a, space_a, cfg);
  SimilarityClient client(b, space_b, cfg);
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            OtBundle ot = test::loopback_bundle();
            serve_similarity_session(server, svm::Kernel::linear(), space_a,
                                     cfg, ch, rng, &ot);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            OtBundle ot = test::loopback_bundle();
            try {
              evaluate_similarity_session(client, svm::Kernel::linear(),
                                          space_b, cfg, ch, rng, &ot);
            } catch (const ProtocolError&) {
            }
            return 0.0;
          }),
      ProtocolError);
}

TEST(SimilaritySession, DigestSeparatedFromClassification) {
  // Same config must hash differently for the two protocols (domain tag).
  const auto cfg = SchemeConfig::silent();
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const DataSpace space;
  EXPECT_NE(protocol_digest(profile, cfg),
            similarity_digest(svm::Kernel::linear(), space, cfg));
}

TEST(OtBundle, EveryTwoPartyCallRejectsANullBundleBeforeSending) {
  // Each entry point either runs on the connection's bundle or throws
  // InvalidArgument before it touches the channel: no frame leaves, and no
  // recv blocks (the short deadline would turn one into a TimeoutError).
  const auto model = toy_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::silent();
  const DataSpace space;
  const ClassificationServer server(model, profile, cfg);
  const ClassificationClient client(profile, cfg);
  const SimilarityServer sim_server(model, space, cfg);
  const SimilarityClient sim_client(model, space, cfg);
  svm::MulticlassDataset three;
  three.push({0.9, 0.1}, 1);
  three.push({0.8, 0.3}, 1);
  three.push({-0.9, 0.1}, 2);
  three.push({-0.7, -0.2}, 2);
  three.push({0.1, 0.9}, 3);
  three.push({0.2, 0.8}, 3);
  const auto mc_model =
      svm::MulticlassModel::train(three, svm::Kernel::linear());
  const MulticlassServer mc_server(mc_model, profile, cfg);
  const MulticlassClient mc_client(mc_model, profile, cfg);
  const std::vector<double> sample{0.5, 0.1};
  const std::vector<std::vector<double>> samples{sample};

  using Call = std::function<void(net::Endpoint&, Rng&)>;
  const std::vector<std::pair<std::string, Call>> calls{
      {"ClassificationServer::serve",
       [&](net::Endpoint& ch, Rng& rng) { server.serve(ch, 1, rng, nullptr); }},
      {"ClassificationClient::query_value",
       [&](net::Endpoint& ch, Rng& rng) {
         client.query_value(ch, sample, rng, nullptr);
       }},
      {"ClassificationClient::classify",
       [&](net::Endpoint& ch, Rng& rng) {
         client.classify(ch, sample, rng, nullptr);
       }},
      {"ClassificationClient::query_values_batch",
       [&](net::Endpoint& ch, Rng& rng) {
         client.query_values_batch(ch, samples, rng, nullptr);
       }},
      {"ClassificationClient::classify_batch",
       [&](net::Endpoint& ch, Rng& rng) {
         client.classify_batch(ch, samples, rng, nullptr);
       }},
      {"serve_session",
       [&](net::Endpoint& ch, Rng& rng) {
         serve_session(server, profile, cfg, ch, rng, 1, nullptr);
       }},
      {"classify_session",
       [&](net::Endpoint& ch, Rng& rng) {
         classify_session(client, profile, cfg, ch, samples, rng, nullptr);
       }},
      {"SimilarityServer::serve",
       [&](net::Endpoint& ch, Rng& rng) { sim_server.serve(ch, rng, nullptr); }},
      {"SimilarityClient::evaluate",
       [&](net::Endpoint& ch, Rng& rng) {
         sim_client.evaluate(ch, rng, nullptr);
       }},
      {"serve_similarity_session",
       [&](net::Endpoint& ch, Rng& rng) {
         serve_similarity_session(sim_server, model.kernel(), space, cfg, ch,
                                  rng, nullptr);
       }},
      {"evaluate_similarity_session",
       [&](net::Endpoint& ch, Rng& rng) {
         evaluate_similarity_session(sim_client, model.kernel(), space, cfg,
                                     ch, rng, nullptr);
       }},
      {"MulticlassServer::serve",
       [&](net::Endpoint& ch, Rng& rng) {
         mc_server.serve(ch, 1, rng, nullptr);
       }},
      {"MulticlassClient::classify",
       [&](net::Endpoint& ch, Rng& rng) {
         mc_client.classify(ch, sample, rng, nullptr);
       }},
  };
  for (const auto& [name, call] : calls) {
    SCOPED_TRACE(name);
    auto [ours, theirs] = net::make_channel();
    ours.set_recv_deadline(
        net::Deadline::after(std::chrono::milliseconds(200)));
    Rng rng(1);
    EXPECT_THROW(call(ours, rng), InvalidArgument);
    EXPECT_EQ(ours.stats().messages, 0u);
    EXPECT_EQ(theirs.stats().messages, 0u);
  }
}

}  // namespace
}  // namespace ppds::core
