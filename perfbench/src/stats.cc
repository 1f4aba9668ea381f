#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double NearestRank(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail SupportedTail(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9)));
    if (values.size() - rank >= kMinBeyond) {
      tail.percentile = p;
      tail.value = values[rank - 1];
      tail.beyond = values.size() - rank;
      return tail;
    }
  }
  return tail;
}

PhaseSummary SummarizePhase(const std::vector<PhaseSample>& samples,
                            double late_bound_ms, double limit_ms) {
  PhaseSummary out;
  out.sent = samples.size();
  if (samples.empty()) return out;
  const double kFailed = std::numeric_limits<double>::infinity();
  std::vector<double> latency;
  std::vector<double> late;
  latency.reserve(samples.size());
  late.reserve(samples.size());
  for (const PhaseSample& s : samples) {
    const bool ok = s.ok && s.recv >= 0.0;
    out.ok += ok ? 1 : 0;
    latency.push_back(ok ? (s.recv - s.due) * 1e3 : kFailed);
    late.push_back((s.sent - s.due) * 1e3);
  }
  out.failed = out.sent - out.ok;
  std::vector<double> window_p99;
  for (size_t w = 0; w + kWindow <= latency.size(); w += kWindow) {
    std::vector<double> window(latency.begin() + w,
                               latency.begin() + w + kWindow);
    std::sort(window.begin(), window.end());
    window_p99.push_back(NearestRank(window, 99.0));
  }
  out.window_p99_ms = Median(window_p99);
  std::vector<double> tail(latency.end() - (latency.size() + 9) / 10,
                           latency.end());
  const double tail_median = Median(tail);
  std::sort(latency.begin(), latency.end());
  std::sort(late.begin(), late.end());
  out.p50_ms = NearestRank(latency, 50.0);
  out.p99_ms = NearestRank(latency, 99.0);
  out.beyond_p99 =
      latency.size() -
      static_cast<size_t>(std::ceil(0.99 * latency.size() - 1e-9));
  out.late_p99_ms = NearestRank(late, 99.0);
  out.valid = out.late_p99_ms <= late_bound_ms;
  out.meets_limit = out.p99_ms <= limit_ms && tail_median <= limit_ms;
  return out;
}

}  // namespace perfbench
