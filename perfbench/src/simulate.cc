// simulate: the paper's Monte-Carlo simulation study, as a closed loop.
//
// One experiment is one (scenario point, variant, model) cell: every
// repetition samples a fresh star schema, joins and splits it, fits a gini
// tree or 1-NN on its training split and predicts a fixed holdout drawn at
// set-up from the same true distribution; ml::MonteCarloBiasVariance runs
// the repetitions on the parallel pool and decomposes the error. The
// variants of a point share their training draws, as in the paper. The
// points span tuple ratios from 25 (nR = 40) down to 1 (nR = 1000),
// include one Zipf-skewed FK and one wide point whose JoinAll rows pack
// into 7 words, so the long-row match-counting paths run. Each pass
// samples fresh training sets under the next of 16 true distributions per
// point.

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/common/parallel.h"
#include "hamlet/core/experiment.h"
#include "hamlet/core/variants.h"
#include "hamlet/ml/bias_variance.h"
#include "hamlet/ml/knn/one_nn.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/synth/onexr.h"
#include "hamlet/synth/reponexr.h"
#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hamlet::core::FeatureVariant;

struct Point {
  const char* name;
  bool replicated;  ///< RepOneXr instead of OneXr
  size_t nr;
  size_t ds;
  size_t dr;
  double zipf;  ///< FK Zipf exponent; 0 = uniform
};

constexpr std::array<Point, 6> kPoints = {{
    {"onexr-nr40", false, 40, 4, 4, 0.0},
    {"onexr-nr200", false, 200, 4, 4, 0.0},
    {"onexr-nr1000", false, 1000, 4, 4, 0.0},
    {"reponexr-nr200", true, 200, 4, 4, 0.0},
    {"onexr-zipf2", false, 200, 4, 4, 2.0},
    {"onexr-wide", false, 200, 24, 24, 0.0},
}};

constexpr std::array<FeatureVariant, 3> kVariants = {
    FeatureVariant::kJoinAll, FeatureVariant::kNoJoin, FeatureVariant::kNoFK};

enum class Model { kTree, kOneNn };
constexpr std::array<Model, 2> kModels = {Model::kTree, Model::kOneNn};

constexpr size_t kFactRows = 1000;
constexpr size_t kRepetitions = 10;
constexpr uint64_t kHoldoutRun = 1000000;  // run index of the holdout draw
// Distinct dimension tables (true distributions) per point; pass p uses
// table p % kDistributions. How long a tree fit takes depends on the
// table, so a run that kept one table per point would measure the seed.
constexpr size_t kDistributions = 16;

/// One draw of `point` under its `dist`-th true distribution: the
/// dimension table comes from `dist`, the fact rows from `run_seed`.
hamlet::StarSchema Generate(const Point& point, uint64_t seed, size_t ns,
                            uint64_t run_seed, size_t point_index,
                            size_t dist) {
  const uint64_t dim_seed = DeriveSeed(seed, {10, point_index, dist});
  if (point.replicated) {
    hamlet::synth::RepOneXrConfig cfg;
    cfg.ns = ns;
    cfg.nr = point.nr;
    cfg.ds = point.ds;
    cfg.dr = point.dr;
    cfg.seed = run_seed;
    cfg.dim_seed = dim_seed;
    return hamlet::synth::GenerateRepOneXr(cfg);
  }
  hamlet::synth::OneXrConfig cfg;
  cfg.ns = ns;
  cfg.nr = point.nr;
  cfg.ds = point.ds;
  cfg.dr = point.dr;
  if (point.zipf > 0) {
    cfg.skew = hamlet::synth::FkSkew::kZipf;
    cfg.skew_param = point.zipf;
  }
  cfg.seed = run_seed;
  cfg.dim_seed = dim_seed;
  return hamlet::synth::GenerateOneXr(cfg);
}

/// A point's fixed holdout: the test split of an independent draw.
struct Holdout {
  hamlet::core::PreparedData prepared;
  std::vector<hamlet::DataView> views;  ///< per variant
  std::vector<uint8_t> labels;
};

struct Cell {
  size_t point;
  size_t variant;
  Model model;
};

struct CellOutcome {
  bool ok = false;
  double mean_error = 0.0;
  std::vector<std::vector<uint8_t>> predictions;  ///< per repetition
};

class Simulation {
 public:
  Simulation(const RunOptions& options, WorkloadResult& result)
      : options_(options),
        result_(result),
        ns_(options.minimal ? 300 : kFactRows),
        reps_(options.minimal ? 3 : kRepetitions),
        dists_(options.minimal ? 1 : kDistributions) {}

  /// One fixed holdout per (point, distribution).
  void SetUp() {
    holdouts_.clear();
    for (size_t i = 0; i < kPoints.size() * dists_; ++i) {
      const size_t p = i / dists_;
      const size_t dist = i % dists_;
      auto h = std::make_unique<Holdout>();
      hamlet::StarSchema star = [&] {
        ScopedSpan span("synth.gen");
        return Generate(kPoints[p], options_.seed, ns_,
                        DeriveSeed(options_.seed, {11, p, kHoldoutRun, dist}),
                        p, dist);
      }();
      {
        ScopedSpan span("core.prepare");
        auto prepared = hamlet::core::Prepare(
            star, DeriveSeed(options_.seed, {12, p, kHoldoutRun, dist}));
        result_.Check(prepared.ok(), "prepare holdout");
        if (prepared.ok()) h->prepared = std::move(prepared).value();
      }
      const hamlet::TrainValTest& split = h->prepared.split;
      for (FeatureVariant v : kVariants) {
        h->views.emplace_back(
            &h->prepared.data, split.test,
            hamlet::core::SelectVariant(h->prepared.data, v));
      }
      for (uint32_t row : split.test) {
        h->labels.push_back(h->prepared.data.label(row));
      }
      holdouts_.push_back(std::move(h));
    }
  }

  std::vector<Cell> Cells() const {
    std::vector<Cell> cells;
    const size_t points = options_.minimal ? 2 : kPoints.size();
    for (size_t p = 0; p < points; ++p) {
      for (size_t v = 0; v < kVariants.size(); ++v) {
        for (Model m : kModels) cells.push_back(Cell{p, v, m});
      }
    }
    return cells;
  }

  /// Rows x features of every joined training draw so far.
  uint64_t joined_cells() const { return joined_cells_.load(); }

  CellOutcome Run(const Cell& cell, size_t pass, bool keep_predictions) {
    const size_t dist = pass % dists_;
    const Holdout& holdout = *holdouts_[cell.point * dists_ + dist];
    const hamlet::DataView& test = holdout.views[cell.variant];
    CellOutcome out;
    out.predictions.resize(reps_);
    std::vector<uint8_t> fit_ok(reps_, 0);
    uint64_t parent = 0;  // the ml.bias_variance.run span, set below
    const uint64_t trace = tracer::CurrentTrace();
    auto repetition = [&](size_t r) -> std::vector<uint8_t> {
      ScopedSpan span("bench.repetition", parent, trace);
      const Point& point = kPoints[cell.point];
      hamlet::StarSchema star = [&] {
        ScopedSpan gen("synth.gen");
        return Generate(point, options_.seed, ns_,
                        DeriveSeed(options_.seed, {11, cell.point, pass, r}),
                        cell.point, dist);
      }();
      hamlet::Result<hamlet::core::PreparedData> prepared = [&] {
        ScopedSpan prep("core.prepare");
        return hamlet::core::Prepare(
            star, DeriveSeed(options_.seed, {12, cell.point, pass, r}));
      }();
      if (!prepared.ok()) return {};
      const hamlet::core::PreparedData& p = prepared.value();
      joined_cells_.fetch_add(p.data.num_rows() * p.data.num_features(),
                              std::memory_order_relaxed);
      const hamlet::DataView train(
          &p.data, p.split.train,
          hamlet::core::SelectVariant(p.data, kVariants[cell.variant]));
      std::vector<uint8_t> predictions;
      if (cell.model == Model::kTree) {
        hamlet::ml::DecisionTree model({.minsplit = 10, .cp = 0.001});
        {
          ScopedSpan fit("ml.tree.fit");
          fit_ok[r] = model.Fit(train).ok();
        }
        ScopedSpan predict("ml.tree.predict");
        if (fit_ok[r]) predictions = model.PredictAll(test);
      } else {
        hamlet::ml::OneNearestNeighbor model;
        {
          ScopedSpan fit("ml.knn.fit");
          fit_ok[r] = model.Fit(train).ok();
        }
        ScopedSpan predict("ml.knn.predict");
        if (fit_ok[r]) predictions = model.PredictAll(test);
      }
      if (keep_predictions) out.predictions[r] = predictions;
      return predictions;
    };
    hamlet::Result<hamlet::ml::BiasVariance> bv = [&] {
      ScopedSpan span("ml.bias_variance.run");
      parent = span.id();
      return hamlet::ml::MonteCarloBiasVariance(reps_, repetition,
                                                holdout.labels, holdout.labels);
    }();
    size_t fits_ok = 0;
    for (uint8_t ok : fit_ok) fits_ok += ok;
    const std::string what = std::string(kPoints[cell.point].name) + " " +
                             hamlet::core::FeatureVariantName(
                                 kVariants[cell.variant]);
    result_.Check(fits_ok == reps_, what + ": every repetition fits");
    // The decomposition rejects a prediction vector of the wrong size.
    out.ok = result_.Check(bv.ok(), what + ": predictions decompose");
    if (out.ok) out.mean_error = bv.value().mean_error;
    return out;
  }

 private:
  const RunOptions& options_;
  WorkloadResult& result_;
  const size_t ns_;
  const size_t reps_;
  const size_t dists_;
  std::vector<std::unique_ptr<Holdout>> holdouts_;
  std::atomic<uint64_t> joined_cells_{0};
};

}  // namespace

WorkloadResult RunSimulate(const RunOptions& options) {
  WorkloadResult result;
  Simulation sim(options, result);

  // Set-up: the fixed holdouts (and, on the first repeat, the thread
  // pool's start). The last repeat is traced when tracing.
  const std::vector<double> setup_seconds = TimeSetUp(options, [&] {
    hamlet::parallel::DefaultPool();
    sim.SetUp();
  });

  const std::vector<Cell> cells = sim.Cells();
  size_t experiments = 0;
  // Per point, per pass: the time of its 6 cells.
  std::vector<std::vector<double>> decisions(cells.back().point + 1);
  double error_sum = 0.0;
  CellOutcome first;
  LibraryCounters first_counters;
  auto run_pass = [&](size_t pass, bool record) {
    std::vector<double> decision(cells.back().point + 1, 0.0);
    for (const Cell& cell : cells) {
      const LibraryCounters start = LibraryCounters::Now();
      const double t0 = NowSeconds();
      CellOutcome outcome = [&] {
        ScopedSpan span("bench.experiment", 0, NewTraceId());
        return sim.Run(cell, pass, record && experiments == 0);
      }();
      if (!record) continue;
      decision[cell.point] += NowSeconds() - t0;
      ++experiments;
      error_sum += outcome.mean_error;
      if (experiments == 1) {
        first = std::move(outcome);
        first_counters = LibraryCounters::Now() - start;
      }
    }
    for (size_t u = 0; record && u < decision.size(); ++u) {
      decisions[u].push_back(decision[u]);
    }
  };

  // Ten head passes for the tracing overhead: one pass takes ~80 ms.
  const ClosedLoop loop = RunClosedLoop(options, cells.size(),
                                        options.minimal ? 1 : 10, run_pass,
                                        result);

  // Determinism check: the first cell again must predict byte-identically
  // in every repetition and repeat its library counters exactly.
  {
    const LibraryCounters start = LibraryCounters::Now();
    const CellOutcome again = sim.Run(cells[0], 0, true);
    const LibraryCounters repeat = LibraryCounters::Now() - start;
    result.Check(again.predictions == first.predictions,
                 "repeated experiment predicts byte-identically");
    result.Check(repeat.ToMap() == first_counters.ToMap(),
                 "repeated experiment repeats its library counters");
  }

  AddSetupAndMemory(setup_seconds, result);
  AddClosedLoopMetrics(
      loop, experiments, decisions,
      1.0 - error_sum / static_cast<double>(experiments), result);
  if (options.trace) {
    const LayerTimes times = ComputeLayerTimes(loop.spans);
    double fit_seconds = 0.0;
    for (const char* name :
         {"ml.tree.fit", "ml.tree.predict", "ml.knn.fit", "ml.knn.predict"}) {
      auto it = times.total_seconds.find(name);
      if (it != times.total_seconds.end()) fit_seconds += it->second;
    }
    AddCounterMetrics(loop.body_counters, 0.0, fit_seconds, result);
    result.Set("relational.joined_cells",
               static_cast<double>(sim.joined_cells()), "count");
  }
  return result;
}

}  // namespace perfbench
