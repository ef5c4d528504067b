#include "ppds/core/session_pool.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ppds::core {
namespace {

struct Fixture {
  svm::SvmModel model;
  ClassificationProfile profile;
  std::vector<std::vector<double>> samples;

  static Fixture make(std::size_t dim, std::size_t count) {
    Rng rng(321);
    math::Vec w(dim);
    for (auto& v : w) v = rng.uniform_nonzero(-1.0, 1.0, 0.05);
    svm::SvmModel model(svm::Kernel::linear(), {w}, {1.0},
                        rng.uniform(-0.2, 0.2));
    auto profile = ClassificationProfile::make(dim, model.kernel());
    std::vector<std::vector<double>> samples(count);
    for (auto& s : samples) {
      s.resize(dim);
      for (auto& v : s) v = rng.uniform(-1.0, 1.0);
    }
    return Fixture{std::move(model), std::move(profile), std::move(samples)};
  }
};

TEST(ChunkSeed, MixesSeedAndStream) {
  EXPECT_NE(chunk_seed(1, 0), chunk_seed(1, 1));
  EXPECT_NE(chunk_seed(1, 0), chunk_seed(2, 0));
  EXPECT_EQ(chunk_seed(7, 3), chunk_seed(7, 3));
}

TEST(SessionPool, MatchesPlainPredictions) {
  const Fixture fx = Fixture::make(6, 10);
  const auto cfg = SchemeConfig::fast_simulation();
  const ClassificationServer server(fx.model, fx.profile, cfg);
  const ClassificationClient client(fx.profile, cfg);
  SessionPool pool(server, client, fx.profile, cfg, 2);
  const std::vector<int> labels = pool.classify_batch(fx.samples, 1234, 4);
  ASSERT_EQ(labels.size(), fx.samples.size());
  for (std::size_t i = 0; i < fx.samples.size(); ++i) {
    EXPECT_EQ(labels[i], fx.model.predict(fx.samples[i])) << "sample " << i;
  }
}

TEST(SessionPool, BitIdenticalAcrossPoolSizes) {
  // Chunking and per-chunk seeds depend only on (seed, chunk_size), so
  // every pool size must produce the identical label vector.
  const Fixture fx = Fixture::make(5, 9);
  const auto cfg = SchemeConfig::fast_simulation();
  const ClassificationServer server(fx.model, fx.profile, cfg);
  const ClassificationClient client(fx.profile, cfg);

  SessionPool reference(server, client, fx.profile, cfg, 1);
  const std::vector<int> expected =
      reference.classify_batch(fx.samples, 77, 2);

  for (std::size_t threads :
       {std::size_t{2}, ThreadPool::default_concurrency()}) {
    SessionPool pool(server, client, fx.profile, cfg, threads);
    EXPECT_EQ(pool.classify_batch(fx.samples, 77, 2), expected)
        << "threads=" << threads;
    // Re-running with the same seed is also reproducible.
    EXPECT_EQ(pool.classify_batch(fx.samples, 77, 2), expected);
  }
}

TEST(SessionPool, SecureBatchedEngineEndToEnd) {
  // Real crypto path: the silent OT engine + fixed-base tables, two
  // concurrent sessions sharing the process-wide group.
  const Fixture fx = Fixture::make(4, 4);
  SchemeConfig cfg;
  cfg.ot_engine = OtEngine::kPrecomputed;
  cfg.group = crypto::GroupId::kModp1024;
  cfg.ompe.q = 2;
  cfg.ompe.k = 2;
  const ClassificationServer server(fx.model, fx.profile, cfg);
  const ClassificationClient client(fx.profile, cfg);
  SessionPool pool(server, client, fx.profile, cfg, 2);
  const std::vector<int> labels = pool.classify_batch(fx.samples, 5, 2);
  ASSERT_EQ(labels.size(), fx.samples.size());
  for (std::size_t i = 0; i < fx.samples.size(); ++i) {
    EXPECT_EQ(labels[i], fx.model.predict(fx.samples[i])) << "sample " << i;
  }
}

TEST(SimilaritySessionPool, DeterministicAcrossPoolSizes) {
  Rng rng(11);
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
  const auto cfg = SchemeConfig::fast_simulation();
  const SimilarityServer server(a, space, cfg);
  const SimilarityClient client(b, space, cfg);

  SimilaritySessionPool reference(server, client, a.kernel(), space, cfg, 1);
  const std::vector<double> expected = reference.evaluate_batch(4, 99);
  ASSERT_EQ(expected.size(), 4u);

  SimilaritySessionPool pool(server, client, a.kernel(), space, cfg, 2);
  EXPECT_EQ(pool.evaluate_batch(4, 99), expected);

  // All evaluations approximate the plaintext similarity.
  const double plain = ordinary_similarity(a, b, space);
  for (double t : expected) EXPECT_NEAR(t, plain, 1e-5 + 1e-3 * plain);
}

TEST(ThreadPoolUnit, RunsAllTasksAndPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::vector<std::future<int>> futures;
  futures.reserve(16);
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);

  auto failing = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
}

}  // namespace
}  // namespace ppds::core
