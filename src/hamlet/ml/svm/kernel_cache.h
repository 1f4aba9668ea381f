// Lazy kernel-row LRU cache for the SMO solver (libsvm-style).
//
// SMO only touches a handful of kernel rows per working-set pass, so the
// fit path never materialises the full n x n Gram matrix. KernelCache
// owns the dense CodeMatrix snapshot of the training view and computes
// kernel rows on demand (packed, bit-identical to KernelEval), keeping
// the most-recently-used rows resident under a byte budget of at least
// two rows (the pairwise update reads rows i and j together). Peak
// memory is O(min(n, budget/row)) rows and early-converging grid cells
// skip most of the Gram entirely; because grid search fits many (C,
// gamma) cells concurrently over the same training view, the saving
// multiplies across the whole grid.
//
// Not thread-safe: one cache belongs to one fit, matching the solver's
// serial inner loop. Process-wide hit/miss totals (for bench reporting
// across concurrent grid fits) are aggregated atomically when a cache is
// destroyed — see GlobalKernelCacheTotals().

#ifndef HAMLET_ML_SVM_KERNEL_CACHE_H_
#define HAMLET_ML_SVM_KERNEL_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hamlet/data/code_matrix.h"
#include "hamlet/data/packed_code_matrix.h"
#include "hamlet/ml/svm/kernel.h"
#include "hamlet/ml/svm/smo.h"

namespace hamlet {
namespace ml {

/// Default kernel-row cache budget: 64 MiB holds every row the paper's
/// training caps produce (n <= 3000 -> 12 KiB/row, ~36 MiB total), so the
/// default never recomputes a row while large ad-hoc problems stay capped.
inline constexpr size_t kDefaultKernelCacheBytes = 64u << 20;

/// Resolves the cache budget from HAMLET_SMO_CACHE_MB: a positive integer
/// number of MiB, or unset/empty for kDefaultKernelCacheBytes. Anything
/// unparseable (non-numeric, zero, > 1 TiB) warns on stderr once per
/// distinct value and falls back to the default, mirroring
/// core::BenchModeFromEnv.
size_t KernelCacheBytesFromEnv();

/// Process-wide kernel-cache counters, summed over destroyed caches.
struct KernelCacheTotals {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// Snapshot of the totals accumulated so far (all fits in this process).
/// The totals are monotone and never reset implicitly, so multi-fit
/// callers that want per-batch numbers must scope them: subtract two
/// snapshots (bench::SvmStatsScope does this) or call
/// ResetGlobalKernelCacheTotals between batches.
KernelCacheTotals GlobalKernelCacheTotals();

/// Zeroes the process-wide totals (test isolation; benches prefer the
/// snapshot-delta pattern, which also works with concurrent fits).
void ResetGlobalKernelCacheTotals();

/// LRU cache of kernel rows over an owned CodeMatrix.
class KernelCache : public KernelRowSource {
 public:
  /// Takes ownership of `matrix` (the training snapshot) and computes
  /// rows with `kernel`. `cache_bytes` is the resident-row budget in
  /// bytes; 0 means KernelCacheBytesFromEnv(). The budget is clamped to
  /// at least min(2, n) rows — the solver's pairwise update holds two
  /// rows at once — and at most n rows (a full cache).
  KernelCache(CodeMatrix matrix, const KernelConfig& kernel,
              size_t cache_bytes = 0);
  ~KernelCache() override;

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// Kernel row i: n floats, each KernelEval narrowed to float. With
  /// capacity >= 2 the most-recently-used row is never the eviction
  /// victim, so the pointer survives one subsequent Row() call for a
  /// different row.
  /// While an active restriction is installed (RestrictActive), only the
  /// restricted entries of the returned row are valid: a miss computes
  /// just those columns, so shrunk SMO sweeps never fault in dead ones.
  const float* Row(size_t i) override;

  /// Serves diagonal entries from a precomputed per-fit array (libsvm's
  /// QD — the diagonal never changes), reads a resident row when either
  /// i's or j's row is cached (the matrix is symmetric) and falls back
  /// to a single O(d) KernelEval otherwise. Never computes or evicts a
  /// row and never counts as a hit or miss.
  float At(size_t i, size_t j) const override;

  /// The per-fit diagonal K(x_t, x_t) (libsvm's QD), computed once in
  /// the constructor; WSS2 reads eta candidates straight from it.
  const float* Diag() const override { return diag_.data(); }

  /// Narrows Row() computation to the given ascending subset of original
  /// indices. Rows computed under a restriction are valid for every
  /// LATER (smaller) restriction in the same era, because the solver's
  /// active set only shrinks between unshrinks; ClearActiveRestriction
  /// closes the era, after which partial rows recompute on next fetch
  /// (full rows stay valid forever).
  void RestrictActive(const int32_t* indices, size_t count) override;
  void ClearActiveRestriction() override;

  size_t size() const override { return matrix_.num_rows(); }
  uint64_t hits() const override { return hits_; }
  uint64_t misses() const override { return misses_; }

  /// The owned training snapshot (support-vector extraction reads codes
  /// from here after the solve).
  const CodeMatrix& matrix() const { return matrix_; }

  /// Maximum number of rows resident at once under the byte budget.
  size_t capacity_rows() const { return capacity_rows_; }
  /// Number of rows currently resident.
  size_t resident_rows() const { return used_slots_; }
  /// True if row i is resident (test hook for eviction-order checks).
  bool Cached(size_t i) const;

 private:
  void ComputeRow(size_t i, float* out) const;
  void MoveToFront(int32_t slot);
  void PushFront(int32_t slot);
  void Detach(int32_t slot);
  /// A resident slot serves hits iff it was computed full (every column)
  /// or within the current restriction era (its columns are a superset
  /// of the current active set).
  bool SlotUsable(int32_t slot) const {
    return slot_full_[static_cast<size_t>(slot)] != 0 ||
           slot_era_[static_cast<size_t>(slot)] == era_;
  }
  /// Debug contract check: while restricted, callers may only touch
  /// restricted indices.
  bool InRestriction(size_t i) const {
    return restrict_idx_.empty() || member_mark_[i] == restrict_serial_;
  }

  CodeMatrix matrix_;
  // Bit-packed mirror of matrix_: every kernel evaluation this cache
  // performs runs popcount-over-words instead of the scalar code scan
  // (bit-identical; see simd/simd.h). Eval counters accumulate locally
  // (ComputeRow/At are const, hence mutable) and flush to the
  // process-wide packed totals in the destructor, like hits_/misses_.
  PackedCodeMatrix packed_;
  mutable uint64_t packed_evals_ = 0;
  mutable uint64_t packed_words_ = 0;
  KernelConfig kernel_;
  std::vector<float> diag_;  // K(x_i, x_i), fixed per fit
  size_t capacity_rows_ = 1;
  std::vector<std::vector<float>> slots_;  // grown lazily up to capacity
  std::vector<int32_t> slot_of_row_;       // n entries, -1 = not resident
  std::vector<int32_t> row_of_slot_;
  std::vector<int32_t> prev_;  // LRU list over slots; head = MRU
  std::vector<int32_t> next_;
  int32_t head_ = -1;
  int32_t tail_ = -1;
  size_t used_slots_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  // Active-restriction state (see RestrictActive): the restricted column
  // set, an era counter bumped when a restriction is lifted, and per-slot
  // tags recording how each resident row was computed.
  std::vector<int32_t> restrict_idx_;  // empty = no restriction
  uint64_t era_ = 0;
  uint64_t restrict_serial_ = 0;
  std::vector<uint64_t> member_mark_;  // n; == restrict_serial_ if member
  std::vector<uint64_t> slot_era_;
  std::vector<uint8_t> slot_full_;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_SVM_KERNEL_CACHE_H_
