// Sample statistics shared by the workloads and the self-tests.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted`, which must be
/// ascending and non-empty.
double NearestRank(const std::vector<double>& sorted, double p);

/// Median with midpoint interpolation; 0 for an empty sample.
double Median(std::vector<double> values);

/// The tail a sample supports: the highest percentile from a fixed
/// ladder (99.9, 99, 95, 90, 75, 50) that leaves at least
/// kMinBeyond samples above its nearest rank.
struct Tail {
  double percentile = 0.0;  ///< 0 when the sample is too small
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;  ///< samples ranked above the percentile
};
inline constexpr size_t kMinBeyond = 10;
Tail SupportedTail(std::vector<double> values);

/// Open-loop accounting for one phase of scheduled requests, all times in
/// seconds on one clock. A request is measured from when it was due, not
/// from when it went out, so a generator stall is charged to every request
/// it delayed. recv < 0 marks a request that failed or never got an
/// answer: it counts as failed and as missing any latency limit.
struct PhaseSample {
  double due = 0.0;
  double sent = 0.0;
  double recv = -1.0;
  bool ok = false;
};

struct PhaseSummary {
  size_t sent = 0;
  size_t ok = 0;
  size_t failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;           ///< nearest-rank p99 from the due time
  size_t beyond_p99 = 0;         ///< samples ranked above p99
  /// Median over consecutive windows of kWindow requests (in schedule
  /// order) of each window's p99: a tail that one stall of the host
  /// cannot move. 0 when the phase is shorter than one window.
  double window_p99_ms = 0.0;
  double late_p99_ms = 0.0;      ///< p99 of (sent - due)
  bool valid = true;             ///< generator kept its schedule
  bool meets_limit = false;      ///< p99 within the limit, no backlog
};

/// Failed requests sort as infinitely slow. `late_bound_ms` bounds the
/// generator's p99 lateness for the phase to count as valid;
/// `limit_ms` is the p99 latency limit. A phase whose last tenth of
/// requests has a median latency above the limit has a growing backlog.
inline constexpr size_t kWindow = 100 * kMinBeyond;
PhaseSummary SummarizePhase(const std::vector<PhaseSample>& samples,
                            double late_bound_ms, double limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
