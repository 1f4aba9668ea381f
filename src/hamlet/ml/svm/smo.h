// Sequential Minimal Optimization solver for the C-SVC dual.
//
// Solves   min_a  1/2 sum_ij a_i a_j y_i y_j K_ij - sum_i a_i
//          s.t.   0 <= a_i <= C,  sum_i a_i y_i = 0
// using pairwise updates with an error cache maintained over an active
// set. Working-set selection is LIBSVM-style second-order (WSS2): i
// maximises the gradient violation over I_up, j maximises the quadratic
// gain (G_i - G_j)^2 / max(eta, tau) over the violating I_low
// candidates, using the cached kernel diagonal plus the single kernel row
// for i. The pair update is LIBSVM's: aj steps by
// y_j (E_i - E_j) / max(eta, tau) and is clipped with the exact rule
// (ExactPairBox), so a step that lands on a box end puts both alphas
// exactly on 0, C or the pair's rounded invariant. Every selected pair
// moves (duplicate rows, eta = 0, take the tau-scaled step to a box
// end), so the loop ends only at convergence or at the iteration
// budget. Shrinking periodically deactivates bound-pinned points whose
// gradients cannot re-enter the working set; before convergence is
// declared the solver reconstructs the full gradient and unshrinks, so
// the returned solution is tolerance-exact on the full problem.
//
// Kernel rows are supplied by a KernelRowSource — in production the lazy
// LRU KernelCache (see kernel_cache.h); tests substitute dense fakes. The
// arithmetic consumes identical float values in identical order for any
// source, so the solution is bit-identical for any row source and any
// cache size.

#ifndef HAMLET_ML_SVM_SMO_H_
#define HAMLET_ML_SVM_SMO_H_

#include <cstdint>
#include <vector>

#include "hamlet/common/status.h"

namespace hamlet {
namespace ml {

/// Solver parameters.
struct SmoConfig {
  double C = 1.0;
  double tolerance = 1e-3;      ///< KKT violation tolerance
  size_t max_iterations = 20000;  ///< pairwise-update budget
};

/// Solver output: dual coefficients and intercept.
///
/// Field contract: every OK return from SolveSmo sets every field
/// deterministically — including the degenerate single-class early
/// return (zero alpha, bias at the majority label, iterations = 0,
/// converged = true, num_support_vectors = 0, zero cache and shrink
/// counters).
struct SmoSolution {
  std::vector<double> alpha;
  double bias = 0.0;
  size_t iterations = 0;
  bool converged = false;
  size_t num_support_vectors = 0;
  /// Row-source counters (KernelCache hits/misses).
  /// hits + misses = total row fetches.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Shrink passes that deactivated at least one point.
  size_t shrink_events = 0;
  /// Full-gradient reconstructions (the aggressive 10x-tolerance
  /// unshrink and the pre-convergence checks of a shrunk active set).
  size_t unshrink_events = 0;
};

/// Process-wide SMO counters summed over completed solves; the SVM-heavy
/// benches report deltas of these per bench run (see
/// bench::SvmStatsScope). fits counts solves that entered the pairwise
/// loop (single-class early returns are excluded).
struct SmoTotals {
  uint64_t fits = 0;
  uint64_t iterations = 0;
  uint64_t shrink_events = 0;
  uint64_t unshrink_events = 0;
};

/// Snapshot of the totals accumulated so far (all solves in this
/// process). Pair with ResetGlobalSmoTotals or subtract two snapshots to
/// scope the counters to one fit batch.
SmoTotals GlobalSmoTotals();

/// Zeroes the process-wide SMO totals (test isolation).
void ResetGlobalSmoTotals();

/// Supplier of kernel matrix rows to the solver. Row(i) returns n floats
/// K(x_i, x_t); the pointer stays valid across ONE subsequent Row() call
/// for a different index (the pairwise update reads rows i and j
/// together), and no longer (a bounded cache may evict the storage).
class KernelRowSource {
 public:
  virtual ~KernelRowSource() = default;
  virtual const float* Row(size_t i) = 0;
  /// The n diagonal entries K(x_t, x_t), bit-identical to Row(t)[t].
  /// Stable for the lifetime of the source; WSS2 reads eta candidates
  /// and the pair step reads kii/kjj from here without fetching rows.
  virtual const float* Diag() const = 0;
  /// Problem size n (rows are n floats).
  virtual size_t size() const = 0;
  /// Narrows subsequent Row() computations to the given ascending
  /// original indices (the solver's shrunk active set). Implementations
  /// may leave non-restricted entries of returned rows unspecified, so
  /// callers must only read restricted entries while a restriction is
  /// installed. Successive calls must pass subsets of the previous
  /// restriction (the active set only shrinks between
  /// ClearActiveRestriction calls). Default: ignored — a source that
  /// always serves full rows is trivially correct.
  virtual void RestrictActive(const int32_t* indices, size_t count) {
    (void)indices;
    (void)count;
  }
  /// Lifts the restriction: subsequent Row() calls serve fully valid
  /// rows again (gradient reconstruction needs the dead columns).
  virtual void ClearActiveRestriction() {}
  virtual uint64_t hits() const { return 0; }
  virtual uint64_t misses() const { return 0; }
};

/// The feasible segment of one pair update under LIBSVM's exact
/// clipping. The equality constraint ties ai to aj; aj ranges over
/// [lo, hi], and each end stands for an exact alpha pair built from the
/// rounded invariant diff = ai - aj (labels differ) or sum = ai + aj
/// (labels agree). Rounded box ends (C + aj - ai) and Platt's partner
/// formula at an end left alphas 1e-14 off their bounds: free in
/// I_up/I_low, but boxed in too tightly to move, so every update on them
/// failed and the fit ran its whole iteration budget.
struct PairBox {
  double lo = 0.0;        ///< aj's lower end
  double hi = 0.0;        ///< aj's upper end
  double ai_at_lo = 0.0;  ///< ai's exact value when aj = lo
  double ai_at_hi = 0.0;  ///< ai's exact value when aj = hi
  double ai_old = 0.0;
  double aj_old = 0.0;
  double s = 0.0;  ///< yi * yj

  /// ai partnering aj_new in [lo, hi]: the end's exact value when aj_new
  /// is an end (both alphas then sit exactly on 0, C, or the invariant),
  /// else the interior step ai_old + s * (aj_old - aj_new).
  double PartnerAi(double aj_new) const {
    if (aj_new == lo) return ai_at_lo;
    if (aj_new == hi) return ai_at_hi;
    return ai_old + s * (aj_old - aj_new);
  }
};

/// LIBSVM's box for the pair (ai, aj) with labels yi, yj in {-1, +1} and
/// box constraint C. Which variable a box end pins is decided by the
/// exact comparisons diff > 0 / sum > C:
///   labels differ:  diff > 0:  lo: (ai, aj) = (diff, 0)
///                              hi: (C, C - diff)
///                   diff <= 0: lo: (0, -diff)
///                              hi: (C + diff, C)
///   labels agree:   sum > C:   lo: (C, sum - C)
///                              hi: (sum - C, C)
///                   sum <= C:  lo: (sum, 0)
///                              hi: (0, sum)
/// lo < hi whenever ai is in I_up and aj in I_low, as in every pair the
/// solver selects. Exposed for direct unit testing.
PairBox ExactPairBox(double ai_old, double aj_old, double yi, double yj,
                     double C);

/// Second-order (WSS2) j-step: given i's kernel row and up-score
/// `up_best` (= -error_i), returns the original index of the I_low
/// candidate maximising the quadratic gain
///   (up_best - score_t)^2 / max(kii + K_tt - 2*K_it, tau),  tau = 1e-12,
/// over the `active_count` ascending original indices in `active`, or
/// SIZE_MAX when no candidate violates (up_best - score_t <= 0 for all).
/// Ties in gain break to the LOWEST original index (the scan keeps the
/// first maximum), which pins the iterate sequence deterministically.
/// Exposed for direct tie-break testing; the solver calls it with the
/// row it fetched for i during selection.
size_t SelectWss2J(const float* row_i, const float* diag,
                   const double* error, const int8_t* y,
                   const double* alpha, double C, const int32_t* active,
                   size_t active_count, double kii, double up_best);

/// Runs SMO against `rows` (n x n kernel values served row by row);
/// `y` holds labels in {-1, +1} and y.size() must equal rows.size().
Result<SmoSolution> SolveSmo(KernelRowSource& rows,
                             const std::vector<int8_t>& y,
                             const SmoConfig& config);

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_SVM_SMO_H_
