#include "ppds/data/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <set>

#include "ppds/svm/smo.hpp"

namespace ppds::data {
namespace {

TEST(Synthetic, SeventeenTable1Datasets) {
  const auto& specs = table1_specs();
  EXPECT_EQ(specs.size(), 17u);
  std::set<std::string> names;
  for (const auto& s : specs) names.insert(s.name);
  EXPECT_EQ(names.size(), 17u);
  for (const char* expected :
       {"splice", "madelon", "diabetes", "german.numer", "a1a", "a5a", "a9a",
        "australian", "cod-rna", "ionosphere", "breast-cancer"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
}

TEST(Synthetic, SpecLookup) {
  EXPECT_TRUE(spec_by_name("diabetes").has_value());
  EXPECT_EQ(spec_by_name("diabetes")->dim, 8u);
  EXPECT_FALSE(spec_by_name("not-a-dataset").has_value());
}

TEST(Synthetic, PaperAccuraciesRecorded) {
  const auto spec = *spec_by_name("cod-rna");
  EXPECT_NEAR(spec.paper_linear_acc, 0.9464, 1e-6);
  EXPECT_NEAR(spec.paper_poly_acc, 0.5425, 1e-6);
  EXPECT_EQ(spec.paper_test_size, 59535u);
}

TEST(Synthetic, GenerateIsDeterministic) {
  const auto spec = *spec_by_name("diabetes");
  auto [train1, test1] = generate(spec);
  auto [train2, test2] = generate(spec);
  ASSERT_EQ(train1.size(), train2.size());
  for (std::size_t i = 0; i < train1.size(); ++i) {
    EXPECT_EQ(train1.y[i], train2.y[i]);
    for (std::size_t j = 0; j < train1.dim(); ++j) {
      EXPECT_DOUBLE_EQ(train1.x[i][j], train2.x[i][j]);
    }
  }
}

TEST(Synthetic, ShapesMatchSpec) {
  for (const auto& spec : table1_specs()) {
    auto [train, test] = generate(spec);
    EXPECT_EQ(train.size(), spec.train_size) << spec.name;
    EXPECT_EQ(test.size(), spec.test_size) << spec.name;
    EXPECT_EQ(train.dim(), spec.dim) << spec.name;
    EXPECT_NO_THROW(train.validate());
    EXPECT_NO_THROW(test.validate());
  }
}

TEST(Synthetic, FeaturesWithinUnitBox) {
  for (const char* name : {"diabetes", "madelon", "a1a", "cod-rna"}) {
    auto [train, test] = generate(*spec_by_name(name));
    for (const auto& row : train.x) {
      for (double v : row) {
        EXPECT_GE(v, -1.0) << name;
        EXPECT_LE(v, 1.0) << name;
      }
    }
  }
}

TEST(Synthetic, ClassBalanceNearSpec) {
  for (const char* name : {"a1a", "madelon", "german.numer"}) {
    const auto spec = *spec_by_name(name);
    auto [train, test] = generate(spec);
    std::size_t pos = 0;
    for (int y : train.y) pos += y > 0 ? 1 : 0;
    const double frac = static_cast<double>(pos) / train.size();
    EXPECT_NEAR(frac, spec.positive_fraction, 0.05) << name;
  }
}

TEST(Synthetic, PoolGenerationSized) {
  const auto spec = *spec_by_name("diabetes");
  const auto pool = generate_pool(spec, 768, 99);
  EXPECT_EQ(pool.size(), 768u);
  EXPECT_EQ(pool.dim(), 8u);
}

TEST(Synthetic, PoolSeedChangesData) {
  const auto spec = *spec_by_name("diabetes");
  const auto a = generate_pool(spec, 10, 1);
  const auto b = generate_pool(spec, 10, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i) {
    for (std::size_t j = 0; j < a.dim(); ++j) {
      if (a.x[i][j] != b.x[i][j]) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

// The headline calibration property behind Table I: each dataset's measured
// accuracies must reproduce the paper's qualitative pattern. Bands are
// deliberately generous — the claim is shape, not decimals.
struct AccuracyCase {
  const char* name;
  double lin_lo, lin_hi;
  double poly_lo, poly_hi;
};

// Without this, gtest prints the case as raw object bytes — including the
// `name` pointer, which ASLR moves on every run — and that text ends up in
// the ctest test names, so they would differ from build to build.
void PrintTo(const AccuracyCase& c, std::ostream* os) { *os << c.name; }

class Table1Calibration : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(Table1Calibration, MatchesPaperBand) {
  const auto param = GetParam();
  const auto spec = *spec_by_name(param.name);
  auto [train, test] = generate(spec);
  const auto lin =
      svm::train_svm(train, svm::Kernel::linear(), {spec.c_linear});
  const auto poly = svm::train_svm(
      train, svm::Kernel::paper_polynomial(spec.dim), {spec.c_poly});
  const double lin_acc = svm::accuracy(lin.predict_all(test.x), test.y);
  const double poly_acc = svm::accuracy(poly.predict_all(test.x), test.y);
  EXPECT_GE(lin_acc, param.lin_lo) << spec.name;
  EXPECT_LE(lin_acc, param.lin_hi) << spec.name;
  EXPECT_GE(poly_acc, param.poly_lo) << spec.name;
  EXPECT_LE(poly_acc, param.poly_hi) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, Table1Calibration,
    ::testing::Values(
        // paper:             lin 58.6 poly 76.8 — nonlinear wins big
        AccuracyCase{"splice", 0.45, 0.68, 0.68, 0.88},
        // paper:             lin 61.6 poly 100 — parity dataset
        AccuracyCase{"madelon", 0.55, 0.80, 0.95, 1.01},
        // paper:             lin 77.3 poly 80.2 — small gap
        AccuracyCase{"diabetes", 0.72, 0.87, 0.75, 0.90},
        // paper:             lin 78.5 poly 96.1 — nonlinear wins big
        AccuracyCase{"german.numer", 0.70, 0.86, 0.92, 1.01},
        // paper:             both ~83
        AccuracyCase{"a1a", 0.78, 0.93, 0.78, 0.93},
        AccuracyCase{"a9a", 0.80, 0.95, 0.80, 0.95},
        // paper:             lin 85.7 poly 92.5
        AccuracyCase{"australian", 0.80, 0.91, 0.86, 0.97},
        // paper:             lin 94.6 poly 54.3 — poly collapses
        AccuracyCase{"cod-rna", 0.90, 1.0, 0.45, 0.65},
        // paper:             both very high
        AccuracyCase{"ionosphere", 0.88, 1.0, 0.90, 1.0},
        AccuracyCase{"breast-cancer", 0.91, 1.0, 0.92, 1.0}),
    [](const auto& param_info) {
      std::string n = param_info.param.name;
      for (char& c : n) {
        if (c == '-' || c == '.') c = '_';
      }
      return n;
    });

}  // namespace
}  // namespace ppds::data
