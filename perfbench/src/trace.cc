#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

struct Buffer {
  std::vector<Span> spans;
};

// Buffers outlive their threads (serve client threads exit before the
// spans are collected), so the registry owns them.
std::mutex g_registry_mu;
std::vector<std::shared_ptr<Buffer>>& Registry() {
  static std::vector<std::shared_ptr<Buffer>> buffers;
  return buffers;
}

Buffer& ThreadBuffer() {
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto b = std::make_shared<Buffer>();
    b->spans.reserve(1 << 12);
    std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(b);
    return b;
  }();
  return *buffer;
}

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_trace = 0;

}  // namespace

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

std::string LayerOf(const std::string& span_name) {
  const size_t dot = span_name.rfind('.');
  return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

namespace tracer {

void SetEnabled(bool enabled) { g_enabled.store(enabled); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
uint64_t CurrentTrace() { return t_current_trace; }

std::vector<Span> Collect() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : Registry()) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return out;
}

}  // namespace tracer

uint64_t NewTraceId() { return g_next_id.fetch_add(1); }

ScopedSpan::ScopedSpan(const char* name)
    : ScopedSpan(name, t_current_span, t_current_trace) {}

ScopedSpan::ScopedSpan(const char* name, uint64_t parent, uint64_t trace)
    : name_(name) {
  if (!tracer::Enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent;
  trace_ = trace;
  saved_current_ = t_current_span;
  saved_trace_ = t_current_trace;
  t_current_span = id_;
  t_current_trace = trace_;
  start_ = NowSeconds();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const double end = NowSeconds();
  ThreadBuffer().spans.push_back(Span{name_, id_, parent_, trace_, start_, end});
  t_current_span = saved_current_;
  t_current_trace = saved_trace_;
}

double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [a, b] : intervals) {
    const double start = std::max(a, reach);
    const double end = std::min(b, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

LayerTimes ComputeLayerTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  LayerTimes out;
  for (const Span& s : spans) {
    double self = s.end - s.start;
    const auto it = children.find(s.id);
    if (it != children.end()) self -= UnionLength(it->second, s.start, s.end);
    out.self_seconds[LayerOf(s.name)] += self;
    out.total_seconds[s.name] += s.end - s.start;
  }
  return out;
}

}  // namespace perfbench
