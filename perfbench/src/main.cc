// perfbench: runs one workload and prints its result as one JSON line.
//
//   perfbench --workload realworld|simulate|serve --seed N --seconds S
//             --trace 0|1 [--minimal] [--corrupt-response]
//
// The last stdout line is a JSON object: correct, attempted, failed,
// metrics (name -> {value, unit}), the deterministic library counters and
// the host fingerprint. perfbench/run.py builds this binary and trims that
// object to the metrics BENCHMARK.json lists. Exit status 1 when any
// output check failed, 2 on bad arguments.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "hamlet/common/parallel.h"
#include "hamlet/simd/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Fingerprint() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"cpu_model\": " + JsonString(CpuModel()) +
         ", \"compiler\": " + JsonString(__VERSION__) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"hamlet_threads\": " +
         std::to_string(hamlet::parallel::ConfiguredThreads()) +
         ", \"simd_backend\": " +
         JsonString(hamlet::simd::BackendName(hamlet::simd::ActiveBackend())) +
         "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload realworld|simulate|serve "
               "--seed N --seconds S --trace 0|1 [--minimal] "
               "[--corrupt-response]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--minimal") {
      options.minimal = true;
    } else if (arg == "--corrupt-response") {
      options.corrupt_response = true;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0) return Usage();

  WorkloadResult result;
  if (workload == "realworld") {
    result = RunRealworld(options);
  } else if (workload == "simulate") {
    result = RunSimulate(options);
  } else if (workload == "serve") {
    result = RunServe(options);
  } else {
    return Usage();
  }
  if (result.attempted == 0) result.Check(false, "no operation attempted");
  result.Set("error_rate",
             static_cast<double>(result.failed) /
                 static_cast<double>(result.attempted),
             "ratio");

  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "[perfbench] %s\n", note.c_str());
  }
  std::string metrics;
  for (const auto& [name, m] : result.metrics) {
    std::fprintf(stderr, "[perfbench] %-32s %14.6g %s\n", name.c_str(),
                 m.value, m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::string counters;
  for (const auto& [name, count] : result.counters) {
    if (!counters.empty()) counters += ", ";
    counters += JsonString(name) + ": " + std::to_string(count);
  }
  const bool correct = result.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}, \"counters\": {" << counters
            << "}, \"fingerprint\": " << Fingerprint() << "}" << std::endl;
  return correct ? 0 : 1;
}
