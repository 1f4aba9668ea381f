#include "hamlet/ml/svm/kernel.h"

#include <cmath>

namespace hamlet {
namespace ml {

const char* KernelTypeName(KernelType type) {
  switch (type) {
    case KernelType::kLinear:
      return "linear";
    case KernelType::kPoly:
      return "poly";
    case KernelType::kRbf:
      return "rbf";
  }
  return "unknown";
}

size_t MatchCount(const uint32_t* a, const uint32_t* b, size_t d) {
  size_t matches = 0;
  for (size_t j = 0; j < d; ++j) matches += a[j] == b[j];
  return matches;
}

double KernelFromMatches(const KernelConfig& config, size_t matches,
                         size_t d) {
  switch (config.type) {
    case KernelType::kLinear:
      return static_cast<double>(matches) / static_cast<double>(d);
    case KernelType::kPoly: {
      const double base = config.gamma * static_cast<double>(matches);
      double out = 1.0;
      for (int k = 0; k < config.degree; ++k) out *= base;
      return out;
    }
    case KernelType::kRbf: {
      const double sq_dist = 2.0 * static_cast<double>(d - matches);
      return std::exp(-config.gamma * sq_dist);
    }
  }
  return 0.0;
}

double KernelEval(const KernelConfig& config, const uint32_t* a,
                  const uint32_t* b, size_t d) {
  return KernelFromMatches(config, MatchCount(a, b, d), d);
}

double PackedKernelEval(const KernelConfig& config, simd::Backend backend,
                        const simd::PackedLayout& layout, const uint64_t* a,
                        const uint64_t* b) {
  const size_t matches = simd::PackedMatchCount(backend, layout, a, b);
  return KernelFromMatches(config, matches, layout.num_features);
}

}  // namespace ml
}  // namespace hamlet
