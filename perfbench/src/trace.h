// Span recording for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own files, around each
// public library call it makes; the library itself carries no
// instrumentation. A span holds a name ("<layer>.<op>", e.g.
// "ml.svm.grid"), start and end on the steady clock, the id of the span
// that caused it and a trace id shared by every span of one experiment
// or one request. Each thread appends to its own in-memory buffer; the
// buffers are read only after the workload body has ended.
//
// With tracing disabled a ScopedSpan costs one relaxed atomic load, so
// the untraced run measures the same code path.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double NowSeconds();

struct Span {
  const char* name = "";  ///< a string literal
  uint64_t id = 0;      ///< unique, > 0
  uint64_t parent = 0;  ///< 0 = root
  uint64_t trace = 0;   ///< experiment or request id
  double start = 0.0;
  double end = 0.0;
};

/// The layer of a span: its name up to the last '.', so "ml.svm.grid"
/// belongs to "ml.svm" and "synth.gen" to "synth".
std::string LayerOf(const std::string& span_name);

namespace tracer {

void SetEnabled(bool enabled);
bool Enabled();

/// Trace id of the innermost open span on this thread (0 = none). Work
/// handed to another thread passes it on, with its parent span's id.
uint64_t CurrentTrace();

/// Every span recorded so far, from every thread, and clears the buffers.
/// Call only while no span is open or being recorded.
std::vector<Span> Collect();

}  // namespace tracer

/// Records one span for its lifetime. The parent and trace default to the
/// thread's innermost open span; work handed to pool threads passes them
/// explicitly.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const char* name, uint64_t parent, uint64_t trace);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t trace_ = 0;
  uint64_t saved_current_ = 0;
  uint64_t saved_trace_ = 0;
  double start_ = 0.0;
};

/// Starts a new trace id (one per experiment or request).
uint64_t NewTraceId();

/// Per-layer breakdown of a set of spans.
struct LayerTimes {
  /// Layer -> summed self time in thread-seconds: each span's duration
  /// minus the part of it covered by the union of its children.
  std::map<std::string, double> self_seconds;
  /// Span name -> summed duration (inclusive of children).
  std::map<std::string, double> total_seconds;
};

LayerTimes ComputeLayerTimes(const std::vector<Span>& spans);

/// Length of the union of the intervals [a, b), clipped to [lo, hi).
double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
