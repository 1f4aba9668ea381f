// realworld: the paper's Tables 2/3 path, as a closed loop.
//
// One experiment is one (dataset, family) cell: grid search on JoinAll and
// on NoJoin, each winner scored on the holdout. This is core::RunVariant
// split at its public layer boundaries (ml::GridSearch over
// core::FactoryFor / core::GridFor, then PredictAll on the test view) so
// holdout scoring is timed apart from the grid. A pass runs every cell
// once, in an order shuffled by the seed.
//
// The datasets are fixed, like the paper's real datasets: each simulator
// runs with its own spec seed and split. The seed only orders the cells.
// SMO cost is bimodal: a fit converges within ~5k iterations or runs to
// the 200k iteration cap, and which fits hit the cap changes with every
// draw and every split. With seed-drawn data a 20 s run's throughput
// spread by +-10% across seeds, a count of capped fits rather than a
// measure of speed. Flights hits the cap in about half its fits and is
// left out for the same reason.

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "hamlet/common/rng.h"
#include "hamlet/core/experiment.h"
#include "hamlet/core/variants.h"
#include "hamlet/data/split.h"
#include "hamlet/ml/grid_search.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/synth/realworld.h"
#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hamlet::core::FeatureVariant;
using hamlet::core::ModelKind;

struct Family {
  ModelKind kind;
  const char* grid_span;
};

constexpr std::array<Family, 5> kFamilies = {{
    {ModelKind::kSvmRbf, "ml.svm.grid"},
    {ModelKind::kAnnMlp, "ml.ann.grid"},
    {ModelKind::kTreeGini, "ml.tree.grid"},
    {ModelKind::kNaiveBayesBackward, "ml.nb.grid"},
    {ModelKind::kLogRegL1, "ml.linear.grid"},
}};

constexpr std::array<FeatureVariant, 2> kVariants = {FeatureVariant::kJoinAll,
                                                     FeatureVariant::kNoJoin};

// At scale 0.1 (~600 fact rows per dataset) one pass over the 30 cells
// takes about 2.6 s, split between ml.ann (~55%) and ml.svm (~40%), so a
// 20 s run measures about seven whole passes.
constexpr double kScale = 0.1;
constexpr size_t kDatasets = 6;  // AllRealWorldSpecs order, Flights last
constexpr uint64_t kSplitSeed = 17;

using Datasets = std::vector<hamlet::core::PreparedData>;

Datasets Generate(const std::vector<hamlet::synth::RealWorldSpec>& specs) {
  Datasets out;
  for (const hamlet::synth::RealWorldSpec& spec : specs) {
    hamlet::StarSchema star = [&] {
      ScopedSpan span("synth.gen");
      return hamlet::synth::GenerateRealWorld(spec);
    }();
    ScopedSpan span("core.prepare");
    auto prepared = hamlet::core::Prepare(
        star, kSplitSeed, hamlet::synth::RealWorldJoinOptions(spec));
    // Prepare only fails on an invalid schema, which the simulators never
    // emit; an empty PreparedData would fail every experiment's checks.
    out.push_back(prepared.ok() ? std::move(prepared).value()
                                : hamlet::core::PreparedData{});
  }
  return out;
}

struct Outcome {
  double accuracy_sum = 0.0;  ///< over both variants
  std::vector<std::vector<uint8_t>> predictions;  ///< per variant
  size_t configs = 0;
};

Outcome RunExperiment(const hamlet::core::PreparedData& prepared,
                      const Family& family, WorkloadResult& result) {
  Outcome out;
  const char* model = hamlet::core::ModelKindName(family.kind);
  for (FeatureVariant variant : kVariants) {
    std::vector<uint32_t> features;
    hamlet::SplitViews views{};
    {
      ScopedSpan span("core.select");
      features = hamlet::core::SelectVariant(prepared.data, variant);
      views = hamlet::MakeSplitViews(prepared.data, prepared.split, features);
    }
    hamlet::Result<hamlet::ml::GridSearchResult> search = [&] {
      ScopedSpan span(family.grid_span);
      return hamlet::ml::GridSearch(
          hamlet::core::FactoryFor(family.kind, prepared, features,
                                   hamlet::core::Effort::kQuick),
          hamlet::core::GridFor(family.kind, hamlet::core::Effort::kQuick),
          views.train, views.val);
    }();
    const std::string what = std::string(model) + " " +
                             hamlet::core::FeatureVariantName(variant);
    if (!result.Check(search.ok(), what + " grid search")) {
      out.predictions.emplace_back();
      continue;
    }
    out.configs += search.value().configurations_tried;
    std::vector<uint8_t> predictions = [&] {
      ScopedSpan span("ml.predict.holdout");
      return search.value().best_model->PredictAll(views.test);
    }();
    if (result.Check(predictions.size() == views.test.num_rows(),
                     what + " prediction count")) {
      std::vector<uint8_t> labels(views.test.num_rows());
      for (size_t i = 0; i < labels.size(); ++i) {
        labels[i] = views.test.label(i);
      }
      out.accuracy_sum +=
          hamlet::ml::PredictionAccuracy(predictions, labels);
    }
    out.predictions.push_back(std::move(predictions));
  }
  return out;
}

}  // namespace

WorkloadResult RunRealworld(const RunOptions& options) {
  WorkloadResult result;
  std::vector<hamlet::synth::RealWorldSpec> specs =
      hamlet::synth::AllRealWorldSpecs(kScale);
  specs.resize(options.minimal ? 2 : kDatasets);

  // Set-up: generate and prepare every dataset.
  Datasets data;
  const std::vector<double> setup_seconds =
      TimeSetUp(options, [&] { data = Generate(specs); });
  double joined_cells = 0.0;
  for (const auto& prepared : data) {
    joined_cells += static_cast<double>(prepared.data.num_rows()) *
                    static_cast<double>(prepared.data.num_features());
  }

  struct Cell {
    size_t dataset;
    const Family* family;
  };
  std::vector<Cell> cells;
  for (size_t d = 0; d < data.size(); ++d) {
    for (const Family& family : kFamilies) cells.push_back(Cell{d, &family});
  }

  size_t experiments = 0;
  // Per dataset, per pass: the time of its 5 cells.
  std::vector<std::vector<double>> decisions(data.size());
  double accuracy_sum = 0.0;
  size_t accuracy_cells = 0;
  size_t ann_configs = 0;
  Outcome first;  // the first cell measured: repeated after the body
  Cell first_cell{};
  LibraryCounters first_counters;
  auto run_pass = [&](size_t pass, bool record) {
    std::vector<Cell> order = cells;
    std::shuffle(order.begin(), order.end(),
                 hamlet::Rng(DeriveSeed(options.seed, {pass})));
    std::vector<double> decision(data.size(), 0.0);
    for (const Cell& cell : order) {
      const LibraryCounters start = LibraryCounters::Now();
      const double t0 = NowSeconds();
      Outcome outcome = [&] {
        ScopedSpan span("bench.experiment", 0, NewTraceId());
        return RunExperiment(data[cell.dataset], *cell.family, result);
      }();
      if (!record) continue;
      decision[cell.dataset] += NowSeconds() - t0;
      ++experiments;
      accuracy_sum += outcome.accuracy_sum;
      accuracy_cells += kVariants.size();
      if (cell.family->kind == ModelKind::kAnnMlp) {
        ann_configs += outcome.configs;
      }
      if (experiments == 1) {
        first = std::move(outcome);
        first_cell = cell;
        first_counters = LibraryCounters::Now() - start;
      }
    }
    for (size_t u = 0; record && u < decision.size(); ++u) {
      decisions[u].push_back(decision[u]);
    }
  };

  const ClosedLoop loop =
      RunClosedLoop(options, cells.size(), 1, run_pass, result);

  // Determinism check: the first cell again, on the same inputs, must
  // predict byte-identically and repeat its library counters exactly.
  {
    const LibraryCounters start = LibraryCounters::Now();
    const Outcome again =
        RunExperiment(data[first_cell.dataset], *first_cell.family, result);
    const LibraryCounters repeat = LibraryCounters::Now() - start;
    result.Check(again.predictions == first.predictions,
                 "repeated experiment predicts byte-identically");
    result.Check(repeat.ToMap() == first_counters.ToMap(),
                 "repeated experiment repeats its library counters");
  }

  AddSetupAndMemory(setup_seconds, result);
  AddClosedLoopMetrics(loop, experiments, decisions,
                       accuracy_sum / static_cast<double>(accuracy_cells),
                       result);
  if (options.trace) {
    const LayerTimes times = ComputeLayerTimes(loop.spans);
    auto total = [&](const char* name) {
      auto it = times.total_seconds.find(name);
      return it == times.total_seconds.end() ? 0.0 : it->second;
    };
    double fit_seconds = 0.0;
    for (const Family& family : kFamilies) {
      fit_seconds += total(family.grid_span);
    }
    AddCounterMetrics(loop.body_counters, total("ml.svm.grid"), fit_seconds,
                      result);
    result.Set("ml.ann.configs", static_cast<double>(ann_configs), "count");
    result.Set("relational.joined_cells", joined_cells, "count");
  }
  return result;
}

}  // namespace perfbench
