// Test-local SMO oracle: a dense Gram matrix built with the scalar
// KernelEval (no bit packing, so it is independent of the packed path the
// production KernelCache runs), a KernelRowSource fake over that matrix,
// and a plain first-order SMO that the production solver (second-order
// working-set selection + shrinking over a lazy row cache) is checked
// against. The oracle keeps Platt's pair step — endpoint evaluation for
// degenerate curvature and a rescue scan for refused pairs — where
// production takes LIBSVM's tau-clamped step, so the two solvers share no
// step code. None of this is library code: the production fit path always
// runs ml::SolveSmo over an ml::KernelCache.

#ifndef HAMLET_TESTS_SMO_REFERENCE_H_
#define HAMLET_TESTS_SMO_REFERENCE_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/ml/svm/kernel.h"
#include "hamlet/ml/svm/smo.h"

namespace hamlet {
namespace test {

/// Dense symmetric n x n Gram over `rows` (n rows of d codes, row-major),
/// stored row-major as floats with the same double->float narrowing as
/// the kernel cache, so entries are bit-identical to cached rows.
inline std::vector<float> ReferenceGram(const ml::KernelConfig& kernel,
                                        const std::vector<uint32_t>& rows,
                                        size_t n, size_t d) {
  assert(rows.size() == n * d);
  std::vector<float> gram(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const float v = static_cast<float>(
          ml::KernelEval(kernel, &rows[i * d], &rows[j * d], d));
      gram[i * n + j] = v;
      gram[j * n + i] = v;
    }
  }
  return gram;
}

/// Presents a precomputed n x n row-major Gram as a row source: every
/// fetch counts as a hit and active restrictions are no-ops (full rows
/// are always valid). Lets tests feed hand-crafted matrices to
/// ml::SolveSmo.
class FullGramRowSource : public ml::KernelRowSource {
 public:
  /// `gram` must outlive the source and hold n*n floats.
  FullGramRowSource(const std::vector<float>& gram, size_t n)
      : gram_(gram), n_(n), diag_(n) {
    assert(gram.size() == n * n);
    for (size_t i = 0; i < n; ++i) diag_[i] = gram[i * n + i];
  }

  const float* Row(size_t i) override {
    ++hits_;
    return gram_.data() + i * n_;
  }
  const float* Diag() const override { return diag_.data(); }
  size_t size() const override { return n_; }
  uint64_t hits() const override { return hits_; }

 private:
  const std::vector<float>& gram_;
  size_t n_;
  std::vector<float> diag_;
  uint64_t hits_ = 0;
};

/// The production solver over a dense Gram (n = y.size()).
inline Result<ml::SmoSolution> SolveSmoOnGram(const std::vector<float>& gram,
                                              const std::vector<int8_t>& y,
                                              const ml::SmoConfig& config) {
  FullGramRowSource rows(gram, y.size());
  return ml::SolveSmo(rows, y, config);
}

/// Platt's endpoint-objective rule for a degenerate-curvature pair
/// (eta = kii + kjj - 2*kij <= 0): evaluates the pair-restricted dual
/// objective at both clipped box ends and returns the aj value of the
/// lower one — lo, hi, or aj_old when the two ends tie (no progress).
/// The gradient-sign heuristic this replaces can pick the worse end when
/// eta < 0 (near-duplicate rows under float rounding): the local descent
/// direction of a concave parabola need not point at the lower endpoint.
inline double DegenerateEndpointAj(double lo, double hi, double ai_old,
                                   double aj_old, double yi, double yj,
                                   double error_i, double error_j,
                                   double bias, double kii, double kjj,
                                   double kij) {
  // Pair-restricted dual objective (others fixed, constants dropped):
  //   psi(a1, a2) = 1/2 kii a1^2 + 1/2 kjj a2^2 + s kij a1 a2
  //                 + f1 a1 + f2 a2
  // with a1 tied to a2 by the equality constraint. f1/f2 follow Platt's
  // pseudocode (§12.2.1) with the bias sign flipped for our f = sum + b
  // convention (Platt uses u = w.x - b).
  const double s = yi * yj;
  const double f1 = yi * (error_i - bias) - ai_old * kii - s * aj_old * kij;
  const double f2 = yj * (error_j - bias) - s * ai_old * kij - aj_old * kjj;
  const double l1 = ai_old + s * (aj_old - lo);
  const double h1 = ai_old + s * (aj_old - hi);
  const double lobj = 0.5 * l1 * l1 * kii + 0.5 * lo * lo * kjj +
                      s * lo * l1 * kij + l1 * f1 + lo * f2;
  const double hobj = 0.5 * h1 * h1 * kii + 0.5 * hi * hi * kjj +
                      s * hi * h1 * kij + h1 * f1 + hi * f2;
  // Minimise; a tie within rounding noise means no progress at either
  // end, so stay put (the caller's no-movement check then returns false
  // instead of shuffling mass between equivalent iterates).
  const double eps =
      1e-12 * (std::abs(lobj) + std::abs(hobj) + 1.0);
  if (lobj < hobj - eps) return lo;
  if (hobj < lobj - eps) return hi;
  return aj_old;
}

/// Result of ReferenceSmo.
struct ReferenceSolution {
  std::vector<double> alpha;
  double bias = 0.0;
  size_t iterations = 0;
  bool converged = false;
};

/// Plain first-order SMO over a dense Gram: every iteration updates the
/// maximal violating pair (Keerthi et al.), with Platt's analytic step,
/// LIBSVM's exact box clipping (written out here, independently of
/// ml::ExactPairBox), endpoint evaluation for eta <= 1e-12
/// (DegenerateEndpointAj), and a linear rescue scan when box clipping
/// blocks the pair. No shrinking, no cache. Labels must be
/// -1/+1 with both classes present.
inline ReferenceSolution ReferenceSmo(const std::vector<float>& gram,
                                      const std::vector<int8_t>& y,
                                      const ml::SmoConfig& config) {
  const size_t n = y.size();
  const double C = config.C;
  ReferenceSolution sol;
  sol.alpha.assign(n, 0.0);
  std::vector<double>& alpha = sol.alpha;
  std::vector<double> error(n);  // f(x_t) - y_t
  for (size_t t = 0; t < n; ++t) error[t] = -static_cast<double>(y[t]);
  double& bias = sol.bias;
  auto K = [&](size_t i, size_t j) {
    return static_cast<double>(gram[i * n + j]);
  };

  auto update = [&](size_t i, size_t j) {
    if (i == j) return false;
    const double yi = y[i], yj = y[j];
    const double ai_old = alpha[i], aj_old = alpha[j];
    // Exact clipping (LIBSVM): the pair invariant, diff = ai - aj for
    // differing labels or sum = ai + aj for equal ones, is rounded once,
    // and exact comparisons of it decide each box end. An end pins both
    // alphas to exact values, never to rounded sums like C + aj - ai.
    const bool differ = yi != yj;
    const double diff = ai_old - aj_old;
    const double sum = ai_old + aj_old;
    double lo, hi, ai_at_lo, ai_at_hi;
    if (differ && diff > 0.0) {
      lo = 0.0, ai_at_lo = diff, hi = C - diff, ai_at_hi = C;
    } else if (differ) {
      lo = -diff, ai_at_lo = 0.0, hi = C, ai_at_hi = C + diff;
    } else if (sum > C) {
      lo = sum - C, ai_at_lo = C, hi = C, ai_at_hi = sum - C;
    } else {
      lo = 0.0, ai_at_lo = sum, hi = sum, ai_at_hi = 0.0;
    }
    if (lo >= hi) return false;
    const double kii = K(i, i), kjj = K(j, j), kij = K(i, j);
    const double eta = kii + kjj - 2.0 * kij;
    const double aj_new =
        eta > 1e-12
            ? std::clamp(aj_old + yj * (error[i] - error[j]) / eta, lo, hi)
            : DegenerateEndpointAj(lo, hi, ai_old, aj_old, yi, yj,
                                   error[i], error[j], bias, kii, kjj, kij);
    if (std::abs(aj_new - aj_old) < 1e-12 * (aj_new + aj_old + 1e-12)) {
      return false;
    }
    const double ai_new = aj_new == lo   ? ai_at_lo
                          : aj_new == hi ? ai_at_hi
                                         : ai_old + yi * yj * (aj_old - aj_new);
    alpha[i] = ai_new;
    alpha[j] = aj_new;
    const double b1 = bias - error[i] - yi * (ai_new - ai_old) * kii -
                      yj * (aj_new - aj_old) * kij;
    const double b2 = bias - error[j] - yi * (ai_new - ai_old) * kij -
                      yj * (aj_new - aj_old) * kjj;
    const double new_bias = (ai_new > 0.0 && ai_new < C)   ? b1
                            : (aj_new > 0.0 && aj_new < C) ? b2
                                                           : 0.5 * (b1 + b2);
    const double delta_b = new_bias - bias;
    bias = new_bias;
    const double di = yi * (ai_new - ai_old);
    const double dj = yj * (aj_new - aj_old);
    for (size_t t = 0; t < n; ++t) {
      error[t] += di * K(i, t) + dj * K(j, t) + delta_b;
    }
    return true;
  };

  size_t& it = sol.iterations;
  for (it = 0; it < config.max_iterations; ++it) {
    // Max score -error over I_up, min over I_low (first extremum wins).
    double up = -std::numeric_limits<double>::infinity();
    double low = std::numeric_limits<double>::infinity();
    size_t i = n, j = n;
    for (size_t t = 0; t < n; ++t) {
      const bool in_up = y[t] > 0 ? alpha[t] < C : alpha[t] > 0.0;
      const bool in_low = y[t] > 0 ? alpha[t] > 0.0 : alpha[t] < C;
      if (in_up && -error[t] > up) up = -error[t], i = t;
      if (in_low && -error[t] < low) low = -error[t], j = t;
    }
    if (i == n || j == n || up - low < config.tolerance) {
      sol.converged = true;
      break;
    }
    bool progressed = update(i, j);
    for (size_t t = 0; t < n && !progressed; ++t) {
      if (t != i && t != j) progressed = update(i, t);
    }
    for (size_t t = 0; t < n && !progressed; ++t) {
      if (t != i && t != j) progressed = update(t, j);
    }
    if (!progressed) break;  // numerically stuck
  }
  return sol;
}

/// Decision value bias + sum_s alpha_s y_s K(x_s, query) over the
/// support vectors (alpha > 1e-10) in ascending order, in double kernel
/// precision like ml::KernelSvm's prediction path.
inline double ReferenceDecisionValue(const ml::KernelConfig& kernel,
                                     const ReferenceSolution& sol,
                                     const std::vector<int8_t>& y,
                                     const std::vector<uint32_t>& train_rows,
                                     const uint32_t* query, size_t d) {
  double f = sol.bias;
  for (size_t s = 0; s < y.size(); ++s) {
    if (sol.alpha[s] > 1e-10) {
      f += sol.alpha[s] * static_cast<double>(y[s]) *
           ml::KernelEval(kernel, &train_rows[s * d], query, d);
    }
  }
  return f;
}

}  // namespace test
}  // namespace hamlet

#endif  // HAMLET_TESTS_SMO_REFERENCE_H_
