// Tests for hamlet/ml/ann: MLP with Adam and sparse one-hot input.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "hamlet/common/rng.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/view.h"
#include "hamlet/ml/ann/mlp.h"
#include "hamlet/ml/metrics.h"
#include "mlp_reference.h"
#include "parity_util.h"

namespace hamlet {
namespace ml {
namespace {

Dataset MakeSeparable(size_t n, uint64_t seed) {
  Dataset d({{"sig", 2, FeatureRole::kHome, -1},
             {"noise", 3, FeatureRole::kHome, -1}});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = static_cast<uint32_t>(rng.UniformInt(2));
    d.AppendRowUnchecked({s, static_cast<uint32_t>(rng.UniformInt(3))},
                         static_cast<uint8_t>(s));
  }
  return d;
}

Dataset MakeXor(size_t n, uint64_t seed) {
  Dataset d({{"a", 2, FeatureRole::kHome, -1},
             {"b", 2, FeatureRole::kHome, -1}});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(2));
    const uint32_t b = static_cast<uint32_t>(rng.UniformInt(2));
    d.AppendRowUnchecked({a, b}, static_cast<uint8_t>(a ^ b));
  }
  return d;
}

MlpConfig SmallConfig() {
  MlpConfig cfg;
  cfg.hidden_sizes = {16, 8};  // small nets keep tests fast
  cfg.learning_rate = 0.01;
  cfg.l2 = 1e-4;
  cfg.epochs = 40;
  cfg.seed = 3;
  return cfg;
}

TEST(MlpTest, LearnsLinearSignal) {
  Dataset data = MakeSeparable(300, 1);
  DataView view(&data);
  Mlp mlp(SmallConfig());
  ASSERT_TRUE(mlp.Fit(view).ok());
  EXPECT_GE(Accuracy(mlp, view), 0.98);
}

TEST(MlpTest, LearnsXor) {
  Dataset data = MakeXor(400, 2);
  DataView view(&data);
  Mlp mlp(SmallConfig());
  ASSERT_TRUE(mlp.Fit(view).ok());
  EXPECT_GE(Accuracy(mlp, view), 0.98);
}

TEST(MlpTest, GeneralisesXorOutOfSample) {
  Dataset train = MakeXor(400, 3);
  Dataset test = MakeXor(200, 4);
  Mlp mlp(SmallConfig());
  ASSERT_TRUE(mlp.Fit(DataView(&train)).ok());
  EXPECT_GE(Accuracy(mlp, DataView(&test)), 0.98);
}

TEST(MlpTest, ProbabilitiesAreCalibratedToUnitInterval) {
  Dataset data = MakeXor(200, 5);
  DataView view(&data);
  Mlp mlp(SmallConfig());
  ASSERT_TRUE(mlp.Fit(view).ok());
  for (size_t i = 0; i < view.num_rows(); ++i) {
    const double p = mlp.PredictProbability(view, i);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_EQ(mlp.Predict(view, i), p >= 0.5 ? 1 : 0);
  }
}

TEST(MlpTest, DeterministicInSeed) {
  Dataset data = MakeXor(200, 6);
  DataView view(&data);
  Mlp a(SmallConfig()), b(SmallConfig());
  ASSERT_TRUE(a.Fit(view).ok());
  ASSERT_TRUE(b.Fit(view).ok());
  for (size_t i = 0; i < view.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(a.PredictProbability(view, i),
                     b.PredictProbability(view, i));
  }
}

TEST(MlpTest, EmptyTrainingFails) {
  Dataset data = MakeXor(10, 7);
  DataView empty(&data, {}, {0, 1});
  Mlp mlp(SmallConfig());
  EXPECT_FALSE(mlp.Fit(empty).ok());
}

TEST(MlpTest, RejectsNoHiddenLayers) {
  MlpConfig cfg = SmallConfig();
  cfg.hidden_sizes = {};
  Mlp mlp(cfg);
  Dataset data = MakeXor(50, 8);
  EXPECT_FALSE(mlp.Fit(DataView(&data)).ok());
}

TEST(MlpTest, StrongL2ShrinksConfidence) {
  Dataset data = MakeSeparable(300, 9);
  DataView view(&data);
  MlpConfig weak = SmallConfig();
  weak.l2 = 1e-5;
  MlpConfig strong = SmallConfig();
  strong.l2 = 1.0;  // heavy penalty keeps weights near zero
  Mlp mw(weak), ms(strong);
  ASSERT_TRUE(mw.Fit(view).ok());
  ASSERT_TRUE(ms.Fit(view).ok());
  double conf_weak = 0.0, conf_strong = 0.0;
  for (size_t i = 0; i < view.num_rows(); ++i) {
    conf_weak += std::abs(mw.PredictProbability(view, i) - 0.5);
    conf_strong += std::abs(ms.PredictProbability(view, i) - 0.5);
  }
  EXPECT_GT(conf_weak, conf_strong);
}

TEST(MlpTest, HandlesLargeFkDomainInput) {
  // One-hot dimension ~500: exercises the sparse first-layer path.
  Rng rng(10);
  Dataset d({{"fk", 500, FeatureRole::kForeignKey, 0}});
  std::vector<uint8_t> fk_label(500);
  for (auto& v : fk_label) v = static_cast<uint8_t>(rng.UniformInt(2));
  for (int i = 0; i < 600; ++i) {
    const uint32_t fk = static_cast<uint32_t>(rng.UniformInt(500));
    d.AppendRowUnchecked({fk}, fk_label[fk]);
  }
  MlpConfig cfg = SmallConfig();
  cfg.epochs = 60;
  Mlp mlp(cfg);
  ASSERT_TRUE(mlp.Fit(DataView(&d)).ok());
  EXPECT_GE(Accuracy(mlp, DataView(&d)), 0.9);
}

// Sweep the paper's tuning grid corners: training must stay stable (no
// NaNs, accuracy above majority) for every (lr, l2) combination.
class MlpGridTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MlpGridTest, StableAcrossTuningGrid) {
  const auto [lr, l2] = GetParam();
  Dataset data = MakeSeparable(200, 11);
  DataView view(&data);
  MlpConfig cfg = SmallConfig();
  cfg.learning_rate = lr;
  cfg.l2 = l2;
  cfg.epochs = 20;
  Mlp mlp(cfg);
  ASSERT_TRUE(mlp.Fit(view).ok());
  const double acc = Accuracy(mlp, view);
  EXPECT_TRUE(std::isfinite(acc));
  EXPECT_GE(acc, 0.45);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, MlpGridTest,
    ::testing::Combine(::testing::Values(1e-3, 1e-2, 1e-1),
                       ::testing::Values(1e-4, 1e-3, 1e-2)));

// ------------------------------------------------- reference parity --
//
// The production trainer (flat first layer, live-input dense kernels,
// batch-delta first-layer gradient, Fit-local Adam state) must reproduce
// the test-local oracle in tests/mlp_reference.h bit for bit: every
// probability and every saved byte.

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

struct OracleCase {
  const char* name;
  std::vector<size_t> hidden_sizes;
  size_t batch_size;
  double learning_rate;
  size_t num_rows;
  std::vector<uint32_t> domains;
  bool expect_dead_units;
};

class MlpOracleParityTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(MlpOracleParityTest, MatchesReferenceBitwise) {
  const OracleCase& c = GetParam();
  const Dataset data = test::MakeParityDataset(c.num_rows, c.domains, 29);
  const auto views = test::MakeParityViews(data, 30);
  MlpConfig cfg;
  cfg.hidden_sizes = c.hidden_sizes;
  cfg.batch_size = c.batch_size;
  cfg.learning_rate = c.learning_rate;
  cfg.l2 = 1e-3;
  cfg.epochs = 4;
  cfg.seed = 31;

  test::ReferenceMlp reference(cfg);
  ASSERT_TRUE(reference.Fit(views.train).ok());
  Mlp mlp(cfg);
  ASSERT_TRUE(mlp.Fit(views.train).ok());
  if (c.expect_dead_units) {
    // Fixture precondition: whole hidden units never fire, so the live
    // input lists of the dense kernels are strictly shorter than h1.
    ASSERT_GT(reference.DeadHiddenUnits(views.train), 0u);
  }

  const std::string bytes = test::SaveToString(mlp);
  // EXPECT_TRUE, not EXPECT_EQ: a mismatch must not dump the model bytes.
  EXPECT_TRUE(bytes == test::SaveToString(reference)) << "saved bytes differ";
  for (const DataView* view : {&views.train, &views.test}) {
    for (size_t i = 0; i < view->num_rows(); ++i) {
      ASSERT_EQ(Bits(mlp.PredictProbability(*view, i)),
                Bits(reference.PredictProbability(*view, i)))
          << "row " << i;
    }
    std::vector<uint8_t> expected(view->num_rows());
    for (size_t i = 0; i < view->num_rows(); ++i) {
      expected[i] = reference.Predict(*view, i);
    }
    for (const char* threads : {"1", "4"}) {
      test::ScopedThreads env(threads);
      EXPECT_EQ(mlp.PredictAll(*view), expected) << threads << " threads";
    }
  }

  // A second Fit on the same object starts from scratch: the Adam state
  // of the first was released, not carried over.
  ASSERT_TRUE(mlp.Fit(views.train).ok());
  EXPECT_TRUE(test::SaveToString(mlp) == bytes) << "refit bytes differ";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MlpOracleParityTest,
    ::testing::Values(
        // 134 training rows: four full batches of 32 and a ragged 6.
        OracleCase{"small_batch32", {8, 4}, 32, 1e-2, 201, {4, 3, 5}, false},
        OracleCase{"small_batch1", {8, 4}, 1, 1e-1, 60, {4, 3, 5}, false},
        OracleCase{"paper_lr_1e2", {256, 64}, 32, 1e-2, 240, {6, 9, 4},
                   false},
        OracleCase{"paper_lr_1e1", {256, 64}, 32, 1e-1, 201, {6, 9, 4},
                   false},
        OracleCase{"large_fk_domain", {16, 8}, 32, 1e-2, 600, {500, 3},
                   false},
        // One binary feature: two distinct inputs, so hidden units whose
        // pre-activation is negative on both never fire.
        OracleCase{"dead_hidden_units", {8, 4}, 8, 1e-1, 90, {2}, true}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ml
}  // namespace hamlet
