// Measurements every workload shares: process resources, the library's
// public counters, seed derivation and the per-layer metrics derived from
// a traced run.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

#include "hamlet/ml/svm/kernel_cache.h"
#include "hamlet/ml/svm/smo.h"
#include "hamlet/simd/simd.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Mixes `parts` into `seed` (hash-combine plus the splitmix64 finalizer),
/// so every generator seed of a run derives from the one --seed argument.
uint64_t DeriveSeed(uint64_t seed, std::initializer_list<uint64_t> parts);

/// Process CPU (user + system) from getrusage, and the peak resident set.
double ProcessCpuSeconds();
double PeakRssMiB();

/// Snapshot of the library's process-wide counters.
struct LibraryCounters {
  hamlet::ml::SmoTotals smo;
  hamlet::ml::KernelCacheTotals cache;
  hamlet::simd::PackedStats packed;

  static LibraryCounters Now();
  LibraryCounters operator-(const LibraryCounters& start) const;
  /// The counters as a sorted name -> count map.
  Counters ToMap() const;
};

/// Per-layer metrics from library counters over the workload body
/// (ml.svm.*, data.packed_*, simd.*). Rates divide by `fit_seconds`, the
/// thread-seconds the calling fits spent.
void AddCounterMetrics(const LibraryCounters& delta, double svm_seconds,
                       double fit_seconds, WorkloadResult& result);

/// Per-layer metrics from spans: summed inclusive time of each library
/// span name as "<name>_s", self time per layer as "self_s.<layer>", and
/// trace.coverage: the share of the body's traced thread time (span self
/// time plus body wall time outside any root span) that a library layer,
/// not the benchmark's own code, accounts for.
void AddSpanMetrics(const std::vector<Span>& spans, double body_start,
                    double body_end, WorkloadResult& result);

/// What RunClosedLoop measured over the body of a training workload.
struct ClosedLoop {
  size_t passes = 0;
  double body_start = 0.0;
  double body_end = 0.0;
  double cpu_seconds = 0.0;
  std::vector<double> pass_rates;  ///< experiments per second of each pass
  Counters pass0_counters;         ///< library counters of pass 0
  LibraryCounters body_counters;
  std::vector<Span> spans;         ///< empty unless tracing
};

/// The closed loop of the two training workloads: `run_pass(pass, record)`
/// runs every experiment of pass `pass` once, over whole passes while the
/// next one is expected to fit options.seconds (at least one; exactly one
/// when minimal). The cells differ in cost by up to 1000x, so a partial
/// pass would weight the rate by where the clock cut it. A traced run
/// first runs a warm-up pass and then its first `head_passes` passes
/// untraced; their traced repeat in the body gives trace.overhead_s and
/// trace.overhead_share.
ClosedLoop RunClosedLoop(const RunOptions& options, size_t cells_per_pass,
                         size_t head_passes,
                         const std::function<void(size_t, bool)>& run_pass,
                         WorkloadResult& result);

/// Throughput, CPU cost, latency and accuracy metrics of a closed loop, and
/// its span metrics when traced. ops_per_s is the median pass rate, so a
/// burst of load from elsewhere on the host moves one pass, not the run;
/// experiments_per_s is the plain count over the body. `decisions[u]`
/// holds the time each join decision on unit u took: the summed wall time
/// of the experiments of one dataset (or scenario point) in one pass.
/// latency_p50_ms is the median over units of each unit's median decision
/// time. A median over single experiments would land on millisecond grid
/// searches that measure thread wake-ups, and one over all decisions would
/// jump between the cost clusters of the units.
void AddClosedLoopMetrics(const ClosedLoop& loop, size_t experiments,
                          const std::vector<std::vector<double>>& decisions,
                          double mean_accuracy, WorkloadResult& result);

/// Runs `setup` kSetupRepeats times and returns each duration. The repeats
/// are 150 ms apart: bursts of load from elsewhere on the host last
/// ~50-100 ms, so one burst moves at most two of the seven and not their
/// median. The final repeat is traced when tracing; its result is the one
/// the workload keeps.
inline constexpr int kSetupRepeats = 7;
std::vector<double> TimeSetUp(const RunOptions& options,
                              const std::function<void()>& setup);

/// Median of `setup_seconds` as setup_s, plus peak_rss_mb.
void AddSetupAndMemory(const std::vector<double>& setup_seconds,
                       WorkloadResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
