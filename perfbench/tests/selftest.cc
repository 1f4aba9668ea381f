// Self-tests of the benchmark's own logic: the percentile rule, span self
// time, open-loop lateness accounting, the serve output check against a
// corrupted answer, and a minimal-size smoke run of each workload.
//
// Build and run through `python3 perfbench/run.py --selftest`, which also
// checks that the command line exits non-zero on a corrupted answer.
// Exit status 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileRule() {
  // 1000 samples: p99 is rank 990 with exactly 10 samples beyond it.
  Tail t = SupportedTail(Ramp(1000));
  Expect(t.percentile == 99.0 && t.beyond == 10 && Near(t.value, 990),
         "1000 samples support p99 with 10 beyond");
  // 999 samples leave only 9 beyond p99, so the rule falls back to p95.
  t = SupportedTail(Ramp(999));
  Expect(t.percentile == 95.0 && t.beyond == 49, "999 samples fall to p95");
  t = SupportedTail(Ramp(10000));
  Expect(t.percentile == 99.9 && t.beyond == 10, "10000 samples support p99.9");
  t = SupportedTail(Ramp(15));
  Expect(t.percentile == 0.0, "15 samples support no tail");
  Expect(Near(Median({3, 1, 2, 4}), 2.5), "median interpolates");
}

void TestSelfTime() {
  // parent [0,10); children [1,3) and [2,5) overlap, [8,12) sticks out;
  // grandchild [1.5,2.5) nests inside the first child.
  const std::vector<Span> spans = {
      {"ml.svm.grid", 1, 0, 1, 0.0, 10.0},
      {"ml.predict.holdout", 2, 1, 1, 1.0, 3.0},
      {"ml.predict.holdout", 3, 1, 1, 2.0, 5.0},
      {"io.save", 4, 1, 1, 8.0, 12.0},
      {"synth.gen", 5, 2, 1, 1.5, 2.5},
  };
  const LayerTimes t = ComputeLayerTimes(spans);
  // Covered by children within [0,10): [1,5) + [8,10) = 6.
  Expect(Near(t.self_seconds.at("ml.svm"), 4.0),
         "self time subtracts the union of overlapping children");
  // Child [1,3) minus grandchild 1.0, plus child [2,5) with none.
  Expect(Near(t.self_seconds.at("ml.predict"), 1.0 + 3.0),
         "nested child self time");
  Expect(Near(t.self_seconds.at("io"), 4.0), "child outliving its parent");
  Expect(Near(t.total_seconds.at("ml.predict.holdout"), 5.0),
         "inclusive totals per span name");
  Expect(LayerOf("ml.svm.grid") == "ml.svm" && LayerOf("synth.gen") == "synth",
         "layer of a span name");
}

void TestLateness() {
  // 100 requests due every 1 ms, answered 0.1 ms after they go out. The
  // generator stalls: requests 50-59 all leave at 70 ms.
  std::vector<PhaseSample> samples;
  for (size_t i = 0; i < 100; ++i) {
    PhaseSample s;
    s.due = 1e-3 * static_cast<double>(i);
    s.sent = (i >= 50 && i < 60) ? 0.070 : s.due;
    s.recv = s.sent + 1e-4;
    s.ok = true;
    samples.push_back(s);
  }
  PhaseSummary sum = SummarizePhase(samples, 5.0, 10.0);
  Expect(sum.late_p99_ms > 18.9 && !sum.valid,
         "a late generator marks the phase invalid");
  // Measured from the due time the p99 request (51) waited 19.1 ms; from
  // the send time it would read 0.1 ms.
  Expect(sum.p99_ms > 19.0 && !sum.meets_limit,
         "latency counts from the due time");
  Expect(std::fabs(sum.p50_ms - 0.1) < 1e-6,
         "on-time requests read their service time");

  // A failed request counts as failed and as missing the limit.
  for (PhaseSample& s : samples) s.sent = s.due, s.recv = s.due + 1e-4;
  samples[10].recv = -1.0;
  samples[10].ok = false;
  sum = SummarizePhase(samples, 5.0, 10.0);
  Expect(sum.failed == 1 && sum.ok == 99 && sum.valid, "failures counted");
  samples[20].ok = false;
  sum = SummarizePhase(samples, 5.0, 10.0);
  Expect(!sum.meets_limit, "two failures in 100 miss a p99 limit");
}

bool HasEndToEnd(const WorkloadResult& r) {
  for (const char* name : {"setup_s", "ops_per_s", "latency_p50_ms",
                           "mean_test_accuracy", "peak_rss_mb"}) {
    auto it = r.metrics.find(name);
    if (it == r.metrics.end() || !(it->second.value > 0)) return false;
  }
  return true;
}

void TestWorkloads() {
  RunOptions options;
  options.minimal = true;
  options.seconds = 1.0;
  for (bool trace : {false, true}) {
    options.trace = trace;
    const std::string mode = trace ? " (traced)" : "";
    const WorkloadResult rw = RunRealworld(options);
    Expect(rw.failed == 0 && rw.attempted > 0 && HasEndToEnd(rw),
           "realworld minimal run" + mode);
    const WorkloadResult sim = RunSimulate(options);
    Expect(sim.failed == 0 && sim.attempted > 0 && HasEndToEnd(sim),
           "simulate minimal run" + mode);
    const WorkloadResult srv = RunServe(options);
    Expect(srv.failed == 0 && srv.attempted > 0 && HasEndToEnd(srv),
           "serve minimal run" + mode);
    if (trace) {
      Expect(sim.metrics.count("trace.coverage") == 1 &&
                 sim.metrics.count("self_s.ml.tree") == 1,
             "traced run reports self time and coverage");
    }
  }
  options.trace = false;
  options.corrupt_response = true;
  const WorkloadResult bad = RunServe(options);
  Expect(bad.failed > 0, "a corrupted serve answer fails the output check");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestSelfTime();
  perfbench::TestLateness();
  perfbench::TestWorkloads();
  std::printf("%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
