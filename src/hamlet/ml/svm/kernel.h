// SVM kernels evaluated directly on categorical code vectors.
//
// All features are categorical and conceptually one-hot encoded (§2.2 of
// the paper). For one-hot vectors u(x), u(z):
//   u(x)·u(z)       = #matching features           (linear kernel)
//   ||u(x)-u(z)||^2 = 2 × #mismatching features    (RBF exponent)
// so kernels run in O(d) per pair without materialising the encoding.
// The paper's grid kernels: linear, quadratic polynomial, Gaussian RBF.

#ifndef HAMLET_ML_SVM_KERNEL_H_
#define HAMLET_ML_SVM_KERNEL_H_

#include <cstdint>
#include <string>

#include "hamlet/simd/simd.h"

namespace hamlet {
namespace ml {

enum class KernelType {
  /// k(x,z) = u(x)·u(z) / d (match fraction). Normalising by the feature
  /// count keeps the kernel scale — and therefore the meaning of C —
  /// independent of how many columns the feature variant selects;
  /// without it, JoinAll's wider feature sets need far more SMO
  /// iterations than NoJoin's for the same C.
  kLinear,
  kPoly,    ///< k(x,z) = (gamma · u(x)·u(z))^degree  (paper: degree 2)
  kRbf,     ///< k(x,z) = exp(-gamma · ||u(x)-u(z)||^2)
};

const char* KernelTypeName(KernelType type);

/// Kernel configuration; `gamma` is ignored by kLinear.
struct KernelConfig {
  KernelType type = KernelType::kRbf;
  double gamma = 0.1;
  int degree = 2;
};

/// Number of matching positions between two code vectors of length d.
size_t MatchCount(const uint32_t* a, const uint32_t* b, size_t d);

/// Kernel value from a precomputed match count (0 <= matches <= d). The
/// single site of the kernel float math: the scalar and packed paths both
/// route through it, so equal match counts give bit-identical values.
double KernelFromMatches(const KernelConfig& config, size_t matches,
                         size_t d);

/// Kernel value for two code vectors of length d.
double KernelEval(const KernelConfig& config, const uint32_t* a,
                  const uint32_t* b, size_t d);

/// Kernel value for two rows packed under `layout` (see
/// data/packed_code_matrix.h). Bit-identical to KernelEval on the
/// unpacked codes: the packed match count is exact and the float math is
/// shared via KernelFromMatches.
double PackedKernelEval(const KernelConfig& config,
                        const simd::PackedLayout& layout, const uint64_t* a,
                        const uint64_t* b);

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_SVM_KERNEL_H_
