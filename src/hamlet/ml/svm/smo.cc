#include "hamlet/ml/svm/smo.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <numeric>

namespace hamlet {
namespace ml {

namespace {

/// Process-wide SMO totals, accumulated when solves finish. Relaxed
/// atomics: concurrent grid-search fits only share the sums; readers
/// (bench reporting) run after the fits.
std::atomic<uint64_t> g_smo_fits{0};
std::atomic<uint64_t> g_smo_iterations{0};
std::atomic<uint64_t> g_smo_shrink_events{0};
std::atomic<uint64_t> g_smo_unshrink_events{0};

/// LIBSVM's curvature floor: eta = kii + kjj - 2 kij is clamped below by
/// tau both when WSS2 scores a candidate and when the pair steps, so a
/// duplicate row (eta = 0) takes a large step that the box then clips.
constexpr double kTau = 1e-12;

}  // namespace

SmoTotals GlobalSmoTotals() {
  SmoTotals totals;
  totals.fits = g_smo_fits.load(std::memory_order_relaxed);
  totals.iterations = g_smo_iterations.load(std::memory_order_relaxed);
  totals.shrink_events =
      g_smo_shrink_events.load(std::memory_order_relaxed);
  totals.unshrink_events =
      g_smo_unshrink_events.load(std::memory_order_relaxed);
  return totals;
}

void ResetGlobalSmoTotals() {
  g_smo_fits.store(0, std::memory_order_relaxed);
  g_smo_iterations.store(0, std::memory_order_relaxed);
  g_smo_shrink_events.store(0, std::memory_order_relaxed);
  g_smo_unshrink_events.store(0, std::memory_order_relaxed);
}

PairBox ExactPairBox(double ai_old, double aj_old, double yi, double yj,
                     double C) {
  // Fields: lo, hi, ai_at_lo, ai_at_hi, ai_old, aj_old, s.
  const double s = yi * yj;
  if (yi != yj) {
    const double diff = ai_old - aj_old;
    if (diff > 0.0) return {0.0, C - diff, diff, C, ai_old, aj_old, s};
    return {-diff, C, 0.0, C + diff, ai_old, aj_old, s};
  }
  const double sum = ai_old + aj_old;
  if (sum > C) return {sum - C, C, C, sum - C, ai_old, aj_old, s};
  return {0.0, sum, sum, 0.0, ai_old, aj_old, s};
}

size_t SelectWss2J(const float* row_i, const float* diag,
                   const double* error, const int8_t* y,
                   const double* alpha, double C, const int32_t* active,
                   size_t active_count, double kii, double up_best) {
  // LIBSVM WSS2: among violating I_low candidates, maximise
  //   (b_t)^2 / a_t,  b_t = up_best - score_t > 0,
  //   a_t = kii + K_tt - 2 K_it clamped below by tau
  // (the constant factor 2 in the paper's gain is argmax-invariant).
  // Strict > keeps the first maximum, so equal-gain candidates resolve
  // to the lowest original index.
  double best_gain = -std::numeric_limits<double>::infinity();
  size_t best = std::numeric_limits<size_t>::max();
  for (size_t k = 0; k < active_count; ++k) {
    const size_t t = static_cast<size_t>(active[k]);
    const bool in_low = (y[t] > 0 && alpha[t] > 0.0) ||
                        (y[t] < 0 && alpha[t] < C);
    if (!in_low) continue;
    const double diff = up_best + error[t];  // up_best - (-error_t)
    if (diff <= 0.0) continue;
    double eta = kii + static_cast<double>(diag[t]) -
                 2.0 * static_cast<double>(row_i[t]);
    if (eta < kTau) eta = kTau;
    const double gain = diff * diff / eta;
    if (gain > best_gain) {
      best_gain = gain;
      best = t;
    }
  }
  return best;
}

namespace {

/// SMO state: alpha, the error cache (f(x_i) - y_i) and the active set.
struct Solver {
  KernelRowSource& rows;
  const std::vector<int8_t>& y;
  const SmoConfig& cfg;
  size_t n;
  std::vector<double> alpha;
  std::vector<double> error;  // f(x_i) - y_i; with alpha = 0, f = bias = 0
  std::vector<int32_t> active;    // ascending original indices
  std::vector<uint8_t> in_active;  // n flags mirroring `active`
  bool shrunk = false;             // active.size() < n
  bool aggressive_unshrunk = false;  // one-time 10x-tolerance unshrink
  size_t shrink_events = 0;
  size_t unshrink_events = 0;
  double bias = 0.0;

  Solver(KernelRowSource& kernel_rows, const std::vector<int8_t>& labels,
         const SmoConfig& config)
      : rows(kernel_rows), y(labels), cfg(config), n(labels.size()),
        alpha(n, 0.0), error(n), active(n), in_active(n, 1) {
    for (size_t i = 0; i < n; ++i) error[i] = -static_cast<double>(y[i]);
    std::iota(active.begin(), active.end(), 0);
  }

  bool InUp(size_t t) const {
    return (y[t] > 0 && alpha[t] < cfg.C) || (y[t] < 0 && alpha[t] > 0.0);
  }
  bool InLow(size_t t) const {
    return (y[t] > 0 && alpha[t] > 0.0) || (y[t] < 0 && alpha[t] < cfg.C);
  }

  /// Max up-score / min low-score over the active set (the violation
  /// m - M drives both the stopping rule and the shrink thresholds).
  void ScanScores(double& up_best, size_t& up_idx, double& low_best,
                  size_t& low_idx) const {
    up_best = -std::numeric_limits<double>::infinity();
    low_best = std::numeric_limits<double>::infinity();
    up_idx = n;
    low_idx = n;
    for (size_t k = 0; k < active.size(); ++k) {
      const size_t t = static_cast<size_t>(active[k]);
      const double score = -error[t];
      if (InUp(t) && score > up_best) {
        up_best = score;
        up_idx = t;
      }
      if (InLow(t) && score < low_best) {
        low_best = score;
        low_idx = t;
      }
    }
  }

  /// Selects the working pair over the active set; returns false at the
  /// active-set optimum (caller decides whether that is global). With
  /// error_t = f(x_t) - y_t, the LIBSVM selection score -y_t grad_t
  /// equals -error_t up to a constant bias shift that cancels in every
  /// comparison.
  bool SelectPair(size_t& out_i, size_t& out_j) {
    double up_best, low_best;
    size_t up_idx, low_idx;
    ScanScores(up_best, up_idx, low_best, low_idx);
    if (up_idx == n || low_idx == n) return false;
    if (up_best - low_best < cfg.tolerance) return false;
    // WSS2: fetch i's kernel row once and pick j by quadratic gain.
    // UpdatePair re-fetches it, which is a cache hit.
    const float* gi = rows.Row(up_idx);
    const size_t j = SelectWss2J(gi, rows.Diag(), error.data(), y.data(),
                                 alpha.data(), cfg.C, active.data(),
                                 active.size(),
                                 static_cast<double>(rows.Diag()[up_idx]),
                                 up_best);
    if (j == std::numeric_limits<size_t>::max()) {
      // No candidate violates STRICTLY (diff > 0). With tolerance > 0
      // the check above guarantees one, but a caller-supplied
      // tolerance <= 0 reaches here at an exact active-set optimum —
      // report optimality rather than indexing with the sentinel.
      return false;
    }
    out_i = up_idx;
    out_j = j;
    return true;
  }

  /// Analytic two-variable update (LIBSVM's step): aj moves by
  /// yj (Ei - Ej) / max(eta, tau) and is clipped to the exact box
  /// (ExactPairBox). SelectPair hands over i in I_up and a strictly
  /// violating j in I_low, so the box has room in the descent direction
  /// and every call moves the pair.
  void UpdatePair(size_t i, size_t j) {
    const double yi = y[i], yj = y[j];
    const double ai_old = alpha[i], aj_old = alpha[j];
    const PairBox box = ExactPairBox(ai_old, aj_old, yi, yj, cfg.C);
    assert(i != j && box.lo < box.hi);

    // Row i is the one SelectPair just fetched, so this is a cache hit;
    // a row source keeps it valid across the fetch of row j.
    const float* gi = rows.Row(i);
    const float* gj = rows.Row(j);
    const double kii = rows.Diag()[i], kjj = rows.Diag()[j];
    const double kij = gi[j];
    const double eta = std::max(kii + kjj - 2.0 * kij, kTau);
    const double aj_new = std::clamp(
        aj_old + yj * (error[i] - error[j]) / eta, box.lo, box.hi);
    const double ai_new = box.PartnerAi(aj_new);
    alpha[i] = ai_new;
    alpha[j] = aj_new;

    // Intercept update (standard SMO bookkeeping).
    const double b1 = bias - error[i] - yi * (ai_new - ai_old) * kii -
                      yj * (aj_new - aj_old) * kij;
    const double b2 = bias - error[j] - yi * (ai_new - ai_old) * kij -
                      yj * (aj_new - aj_old) * kjj;
    double new_bias;
    if (ai_new > 0.0 && ai_new < cfg.C) {
      new_bias = b1;
    } else if (aj_new > 0.0 && aj_new < cfg.C) {
      new_bias = b2;
    } else {
      new_bias = 0.5 * (b1 + b2);
    }
    const double delta_b = new_bias - bias;
    bias = new_bias;

    // Refresh the error cache over the active set: O(active) with the
    // two fetched rows. Inactive errors go stale by design; Unshrink
    // reconstructs them from scratch before they are ever read again.
    const double di = yi * (ai_new - ai_old);
    const double dj = yj * (aj_new - aj_old);
    for (size_t k = 0; k < active.size(); ++k) {
      const size_t t = static_cast<size_t>(active[k]);
      error[t] += di * gi[t] + dj * gj[t] + delta_b;
    }
  }

  /// Reconstructs the full error cache and reactivates every point.
  /// Stale inactive errors are recomputed from scratch —
  ///   error[t] = sum_s alpha_s y_s K_st + bias - y_t
  /// accumulated in ascending s over full kernel rows — so the values
  /// (and everything downstream) are independent of the cache budget.
  /// Active errors keep their incrementally maintained values.
  void Unshrink() {
    if (!shrunk) return;
    rows.ClearActiveRestriction();
    for (size_t t = 0; t < n; ++t) {
      if (!in_active[t]) error[t] = bias - static_cast<double>(y[t]);
    }
    for (size_t s = 0; s < n; ++s) {
      if (alpha[s] == 0.0) continue;
      const float* gs = rows.Row(s);
      const double c = alpha[s] * static_cast<double>(y[s]);
      for (size_t t = 0; t < n; ++t) {
        if (!in_active[t]) error[t] += c * static_cast<double>(gs[t]);
      }
    }
    active.resize(n);
    std::iota(active.begin(), active.end(), 0);
    std::fill(in_active.begin(), in_active.end(), uint8_t{1});
    shrunk = false;
    ++unshrink_events;
  }

  /// Periodic shrink pass (LIBSVM do_shrinking): once the active
  /// violation falls within 10x tolerance, reconstruct and unshrink
  /// aggressively (one time), then deactivate bound-pinned points whose
  /// score can no longer enter the working set — an I_up-only point
  /// with score below the min low-score, or an I_low-only point with
  /// score above the max up-score.
  void DoShrink() {
    double up_best, low_best;
    size_t up_idx, low_idx;
    ScanScores(up_best, up_idx, low_best, low_idx);
    if (up_idx == n || low_idx == n) return;  // SelectPair handles this
    if (!aggressive_unshrunk && up_best - low_best <= cfg.tolerance * 10) {
      aggressive_unshrunk = true;
      Unshrink();
      ScanScores(up_best, up_idx, low_best, low_idx);
      if (up_idx == n || low_idx == n) return;
    }
    size_t kept = 0;
    for (size_t k = 0; k < active.size(); ++k) {
      const size_t t = static_cast<size_t>(active[k]);
      const bool up = InUp(t), low = InLow(t);
      const double score = -error[t];
      bool drop = false;
      if (up && !low) {
        drop = score < low_best;
      } else if (low && !up) {
        drop = score > up_best;
      }
      if (drop) {
        in_active[t] = 0;
      } else {
        active[kept++] = active[k];
      }
    }
    if (kept < active.size()) {
      active.resize(kept);
      shrunk = active.size() < n;
      ++shrink_events;
      rows.RestrictActive(active.data(), active.size());
    }
  }
};

}  // namespace

Result<SmoSolution> SolveSmo(KernelRowSource& rows,
                             const std::vector<int8_t>& y,
                             const SmoConfig& config) {
  const size_t n = y.size();
  if (n == 0) return Status::InvalidArgument("empty problem");
  if (rows.size() != n) {
    return Status::InvalidArgument("kernel row source size != n");
  }
  bool has_pos = false, has_neg = false;
  for (int8_t v : y) {
    if (v == 1) has_pos = true;
    else if (v == -1) has_neg = true;
    else return Status::InvalidArgument("labels must be -1/+1");
  }

  SmoSolution sol;
  sol.alpha.assign(n, 0.0);
  if (!has_pos || !has_neg) {
    // Single-class training data: the zero solution with a bias at the
    // majority label is the natural degenerate answer. Pin every field:
    // no pairwise updates ran and no kernel row was ever fetched.
    sol.bias = has_pos ? 1.0 : -1.0;
    sol.iterations = 0;
    sol.converged = true;
    sol.num_support_vectors = 0;
    sol.cache_hits = 0;
    sol.cache_misses = 0;
    sol.shrink_events = 0;
    sol.unshrink_events = 0;
    return sol;
  }

  Solver solver(rows, y, config);
  const size_t shrink_period = std::min(n, size_t{1000});
  size_t shrink_counter = shrink_period;
  size_t it = 0;
  for (; it < config.max_iterations; ++it) {
    if (--shrink_counter == 0) {
      solver.DoShrink();
      shrink_counter = shrink_period;
    }
    size_t i = 0, j = 0;
    if (!solver.SelectPair(i, j)) {
      // Optimal on the active set. If shrunk, that is only a candidate
      // optimum: reconstruct the full gradient, unshrink, and re-check
      // before declaring convergence (LIBSVM's exactness rule).
      if (solver.shrunk) {
        solver.Unshrink();
        shrink_counter = 1;  // re-shrink at the next opportunity
        if (!solver.SelectPair(i, j)) {
          sol.converged = true;
          break;
        }
      } else {
        sol.converged = true;
        break;
      }
    }
    solver.UpdatePair(i, j);
  }
  // A shrunk final iterate (iteration budget exhausted) still reports
  // authoritative alpha/bias, but the caller-owned row source must not
  // be handed back with the restriction still installed — a later solve
  // over the same source would read stale non-restricted columns.
  if (solver.shrunk) rows.ClearActiveRestriction();
  sol.alpha = std::move(solver.alpha);
  sol.bias = solver.bias;
  sol.iterations = it;
  sol.num_support_vectors = 0;
  for (double a : sol.alpha) sol.num_support_vectors += a > 1e-10;
  sol.cache_hits = rows.hits();
  sol.cache_misses = rows.misses();
  sol.shrink_events = solver.shrink_events;
  sol.unshrink_events = solver.unshrink_events;
  g_smo_fits.fetch_add(1, std::memory_order_relaxed);
  g_smo_iterations.fetch_add(it, std::memory_order_relaxed);
  g_smo_shrink_events.fetch_add(solver.shrink_events,
                                std::memory_order_relaxed);
  g_smo_unshrink_events.fetch_add(solver.unshrink_events,
                                  std::memory_order_relaxed);
  return sol;
}

}  // namespace ml
}  // namespace hamlet
