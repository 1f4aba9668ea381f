// The three benchmark workloads and what each run reports.
//
//   realworld  closed loop over (dataset, family) experiments on the seven
//              real-world simulators: a few large grid-searched fits where
//              ml.svm and ml.ann do nearly all the work.
//   simulate   closed loop over Monte-Carlo bias-variance experiments on
//              fresh OneXr / RepOneXr star schemas: thousands of small
//              tree and 1-NN fits where synth, core.prepare and simd match
//              counting carry the time. No SVM, no MLP.
//   serve      a NoJoin decision tree behind serve::net::NetServer, driven
//              open loop over loopback beside a bulk stream: the serving
//              layers do the work and the model almost none.
//
// Every input derives from RunOptions::seed. The body runs for about
// RunOptions::seconds; set-up is timed separately and repeated.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Shrinks every workload to a few seconds (self-test smoke runs).
  bool minimal = false;
  /// Flips one served answer at the client before it is checked; the
  /// run must then fail its output check (self-test of that check).
  bool corrupt_response = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Library counters that repeat exactly for a given seed. A sibling run of
/// the same workload, seed and host whose counters differ had different
/// inputs, not a noisy machine.
using Counters = std::map<std::string, uint64_t>;

struct WorkloadResult {
  uint64_t attempted = 0;  ///< fits, checks and requests attempted
  uint64_t failed = 0;     ///< non-OK fits, failed checks, bad answers
  /// End-to-end metrics (every run) and per-layer metrics (traced run).
  std::map<std::string, Metric> metrics;
  Counters counters;
  /// Human-readable lines for stderr (breakdowns, warnings).
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one attempted operation; returns `ok`.
  bool Check(bool ok, const std::string& what);
};

WorkloadResult RunRealworld(const RunOptions& options);
WorkloadResult RunSimulate(const RunOptions& options);
WorkloadResult RunServe(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
