#include "measure.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "hamlet/common/parallel.h"
#include "stats.h"

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, std::initializer_list<uint64_t> parts) {
  uint64_t x = seed;
  for (uint64_t part : parts) {
    x ^= part + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
  }
  return x;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // would not do: it keeps the high-water mark of the process that forked
  // us (run.py) across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

LibraryCounters LibraryCounters::Now() {
  return LibraryCounters{hamlet::ml::GlobalSmoTotals(),
                         hamlet::ml::GlobalKernelCacheTotals(),
                         hamlet::simd::GlobalPackedStats()};
}

LibraryCounters LibraryCounters::operator-(
    const LibraryCounters& start) const {
  LibraryCounters d;
  d.smo.fits = smo.fits - start.smo.fits;
  d.smo.iterations = smo.iterations - start.smo.iterations;
  d.smo.shrink_events = smo.shrink_events - start.smo.shrink_events;
  d.smo.unshrink_events = smo.unshrink_events - start.smo.unshrink_events;
  d.cache.hits = cache.hits - start.cache.hits;
  d.cache.misses = cache.misses - start.cache.misses;
  d.packed.builds = packed.builds - start.packed.builds;
  d.packed.rows = packed.rows - start.packed.rows;
  d.packed.build_words = packed.build_words - start.packed.build_words;
  d.packed.evals = packed.evals - start.packed.evals;
  d.packed.eval_words = packed.eval_words - start.packed.eval_words;
  return d;
}

Counters LibraryCounters::ToMap() const {
  return {{"cache.hits", cache.hits},
          {"cache.misses", cache.misses},
          {"packed.build_words", packed.build_words},
          {"packed.builds", packed.builds},
          {"packed.eval_words", packed.eval_words},
          {"packed.evals", packed.evals},
          {"packed.rows", packed.rows},
          {"smo.fits", smo.fits},
          {"smo.iterations", smo.iterations},
          {"smo.shrinks", smo.shrink_events},
          {"smo.unshrinks", smo.unshrink_events}};
}

void AddCounterMetrics(const LibraryCounters& d, double svm_seconds,
                       double fit_seconds, WorkloadResult& r) {
  auto rate = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  r.Set("ml.svm.fits", d.smo.fits, "count");
  r.Set("ml.svm.smo_iters", d.smo.iterations, "count");
  r.Set("ml.svm.iters_per_s", rate(d.smo.iterations, svm_seconds), "1/s");
  r.Set("ml.svm.shrinks", d.smo.shrink_events, "count");
  r.Set("ml.svm.unshrinks", d.smo.unshrink_events, "count");
  r.Set("ml.svm.cache_misses", d.cache.misses, "count");
  r.Set("ml.svm.cache_hit_rate",
        rate(d.cache.hits, d.cache.hits + d.cache.misses), "ratio");
  r.Set("data.packed_rows", d.packed.rows, "count");
  r.Set("data.packed_words_per_row", rate(d.packed.build_words, d.packed.rows),
        "words");
  r.Set("simd.evals", d.packed.evals, "count");
  r.Set("simd.eval_words", d.packed.eval_words, "count");
  r.Set("simd.eval_words_per_s", rate(d.packed.eval_words, fit_seconds),
        "1/s");
}

void AddSpanMetrics(const std::vector<Span>& spans, double body_start,
                    double body_end, WorkloadResult& r) {
  const LayerTimes times = ComputeLayerTimes(spans);
  for (const auto& [name, seconds] : times.total_seconds) {
    if (LayerOf(name) != "bench") r.Set(name + "_s", seconds, "s");
  }
  for (const auto& [layer, seconds] : times.self_seconds) {
    r.Set("self_s." + layer, seconds, "s");
  }
  // Coverage counts the body only; set-up spans precede body_start.
  std::vector<Span> body;
  std::vector<std::pair<double, double>> roots;
  for (const Span& s : spans) {
    if (s.start < body_start) continue;
    body.push_back(s);
    if (s.parent == 0) roots.emplace_back(s.start, s.end);
  }
  double library = 0.0;
  double all = (body_end - body_start) -
               UnionLength(std::move(roots), body_start, body_end);
  for (const auto& [layer, seconds] : ComputeLayerTimes(body).self_seconds) {
    all += seconds;
    if (layer != "bench") library += seconds;
  }
  r.Set("trace.coverage", all > 0 ? library / all : 0.0, "ratio");
  r.Set("trace.spans", static_cast<double>(spans.size()), "count");
}

ClosedLoop RunClosedLoop(const RunOptions& options, size_t cells_per_pass,
                         size_t head_passes,
                         const std::function<void(size_t, bool)>& run_pass,
                         WorkloadResult& result) {
  double untraced_head = 0.0;
  if (options.trace) {
    tracer::SetEnabled(false);
    run_pass(0, false);
    const double t0 = NowSeconds();
    for (size_t pass = 0; pass < head_passes; ++pass) run_pass(pass, false);
    untraced_head = NowSeconds() - t0;
    tracer::SetEnabled(true);
  }
  ClosedLoop loop;
  const LibraryCounters counters0 = LibraryCounters::Now();
  const double cpu0 = ProcessCpuSeconds();
  loop.body_start = NowSeconds();
  double traced_head = 0.0;
  for (;; ++loop.passes) {
    const double elapsed = NowSeconds() - loop.body_start;
    if (loop.passes > 0 &&
        (options.minimal ||
         elapsed + elapsed / static_cast<double>(loop.passes) >
             options.seconds)) {
      break;
    }
    const LibraryCounters pass_start = LibraryCounters::Now();
    const double t0 = NowSeconds();
    run_pass(loop.passes, true);
    const double t1 = NowSeconds();
    loop.pass_rates.push_back(static_cast<double>(cells_per_pass) / (t1 - t0));
    if (loop.passes + 1 == head_passes) traced_head = t1 - loop.body_start;
    if (loop.passes == 0) {
      loop.pass0_counters = (LibraryCounters::Now() - pass_start).ToMap();
    }
  }
  loop.body_end = NowSeconds();
  loop.cpu_seconds = ProcessCpuSeconds() - cpu0;
  loop.body_counters = LibraryCounters::Now() - counters0;
  tracer::SetEnabled(false);
  if (options.trace) {
    loop.spans = tracer::Collect();
    result.Set("trace.overhead_s", traced_head - untraced_head, "s");
    result.Set("trace.overhead_share",
               (traced_head - untraced_head) / untraced_head, "ratio");
  }
  return loop;
}

void AddClosedLoopMetrics(const ClosedLoop& loop, size_t experiments,
                          const std::vector<std::vector<double>>& decisions,
                          double mean_accuracy, WorkloadResult& r) {
  const double n = static_cast<double>(experiments);
  const double wall = loop.body_end - loop.body_start;
  r.Set("ops_per_s", Median(loop.pass_rates), "1/s");
  r.Set("experiments_per_s", n / wall, "1/s");
  r.Set("cpu_ms_per_op", 1e3 * loop.cpu_seconds / n, "ms");
  r.Set("cpu_s_per_experiment", loop.cpu_seconds / n, "s");
  r.Set("parallel.cpu_util",
        loop.cpu_seconds /
            (wall * static_cast<double>(hamlet::parallel::ConfiguredThreads())),
        "ratio");
  r.Set("mean_test_accuracy", mean_accuracy, "ratio");
  std::vector<double> ms;
  std::vector<double> unit_medians;
  for (const std::vector<double>& unit : decisions) {
    for (double s : unit) ms.push_back(1e3 * s);
    unit_medians.push_back(1e3 * Median(unit));
  }
  const Tail tail = SupportedTail(ms);
  r.Set("latency_p50_ms", Median(unit_medians), "ms");
  r.Set("latency_tail_ms", tail.value, "ms");
  r.notes.push_back(std::to_string(loop.passes) + " passes, " +
                    std::to_string(experiments) + " experiments, " +
                    std::to_string(tail.samples) + " decisions; tail = p" +
                    std::to_string(tail.percentile) + " with " +
                    std::to_string(tail.beyond) + " beyond");
  r.counters = loop.pass0_counters;
  if (!loop.spans.empty()) {
    AddSpanMetrics(loop.spans, loop.body_start, loop.body_end, r);
  }
}

std::vector<double> TimeSetUp(const RunOptions& options,
                              const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (rep > 0) std::this_thread::sleep_for(std::chrono::milliseconds(150));
    tracer::SetEnabled(options.trace && rep == kSetupRepeats - 1);
    const double t0 = NowSeconds();
    setup();
    seconds.push_back(NowSeconds() - t0);
  }
  tracer::SetEnabled(false);
  return seconds;
}

void AddSetupAndMemory(const std::vector<double>& setup_seconds,
                       WorkloadResult& r) {
  r.Set("setup_s", Median(setup_seconds), "s");
  std::string each;
  for (double s : setup_seconds) each += " " + std::to_string(s);
  r.notes.push_back("set-up repeats (s):" + each);
  r.Set("peak_rss_mb", PeakRssMiB(), "MiB");
}

bool WorkloadResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failed <= 10) notes.push_back("FAILED: " + what);
  }
  return ok;
}

}  // namespace perfbench
