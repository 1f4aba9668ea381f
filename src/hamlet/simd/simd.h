// Packed-code match counting for the categorical hot loops.
//
// Every inner loop the paper's experiments live in — 1-NN Hamming
// distance, the linear/overlap SVM kernels, NB counting, tree split
// scans — is a scan over uint32_t categorical codes. Packing the codes
// into fixed-width bit fields (see PackedLayout) turns match counting
// into XOR + guard-bit carry trick + popcount over uint64_t words: 16-64
// codes per cache line instead of one per 4 bytes. The popcount is the
// portable bit-twiddling one (Hacker's Delight), so there is one code
// path on every 64-bit host and no runtime dispatch.
//
// The counts are exact integers, so every downstream float computation
// consumes the same values at any thread count; the parity suite
// (tests/packed_parity_test.cc) checks them against per-field references
// on unpacked codes.
//
// The word-level helpers here are layout math on raw pointers only; the
// owning container is data/packed_code_matrix.h.

#ifndef HAMLET_SIMD_SIMD_H_
#define HAMLET_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hamlet {
namespace simd {

/// Name of the match-counting path, kept only for reporting: the bench
/// `[packed]` line and perfbench's fingerprint print
/// BackendName(ActiveBackend()), so BENCH schema v7 keeps its `backend`
/// field. There is one path, so no counting function takes a Backend.
enum class Backend {
  kSwar,
};

inline const char* BackendName(Backend) { return "swar"; }

inline Backend ActiveBackend() { return Backend::kSwar; }

/// Bit-field layout shared by every packed row that must be comparable.
///
/// Each code occupies a field of `field_bits` = (bits needed for the
/// largest code) + 1 bits; the extra top bit is a guard that is always
/// stored as 0. For x = a XOR b, adding (2^(field_bits-1) - 1) to every
/// field (`add_mask`) carries into the guard bit exactly when the field
/// is non-zero, and the carry cannot escape the field — so
/// popcount((x + add_mask) & guard_mask) is the mismatch count of one
/// word. Unused tail fields of the last word are zero in every row and
/// contribute no mismatches.
struct PackedLayout {
  size_t num_features = 0;
  uint32_t field_bits = 2;      ///< value bits + 1 guard bit
  size_t fields_per_word = 32;  ///< 64 / field_bits
  size_t words_per_row = 0;     ///< ceil(num_features / fields_per_word)
  uint64_t guard_mask = 0;      ///< guard bit of every field in a word
  uint64_t add_mask = 0;        ///< (2^(field_bits-1) - 1) in every field

  /// Layout wide enough for `d` features whose codes come from the given
  /// per-feature domain sizes (codes are < domain). The layout depends
  /// only on the largest domain, so matrices with equal domains share it.
  static PackedLayout ForDomains(const uint32_t* domains, size_t d);

  /// Layout wide enough for codes up to and including `max_code`.
  static PackedLayout ForMaxCode(uint32_t max_code, size_t d);

  /// Packs one row of num_features codes into out[0 .. words_per_row).
  /// Every code must fit the layout (checked via assert).
  void PackRow(const uint32_t* codes, uint64_t* out) const;

  /// Unpacks feature j from a packed row (tests and debug checks).
  uint32_t UnpackCode(const uint64_t* row, size_t j) const;

  /// Two layouts produce interchangeable packed rows iff all field
  /// parameters agree.
  bool Compatible(const PackedLayout& other) const {
    return num_features == other.num_features &&
           field_bits == other.field_bits;
  }
};

/// Number of mismatching features between two packed rows of the same
/// layout.
size_t PackedMismatchCount(const PackedLayout& layout, const uint64_t* a,
                           const uint64_t* b);

/// Early-exit variant for 1-NN: stops scanning words once the running
/// mismatch count reaches `limit` and returns a value >= limit. For
/// results < limit the count is exact; callers must treat any returned
/// value >= limit as "not better".
size_t PackedMismatchCountBounded(const PackedLayout& layout,
                                  const uint64_t* a, const uint64_t* b,
                                  size_t limit);

/// Matching features between two packed rows (num_features - mismatches);
/// the quantity the linear/poly kernels consume directly.
inline size_t PackedMatchCount(const PackedLayout& layout, const uint64_t* a,
                               const uint64_t* b) {
  return layout.num_features - PackedMismatchCount(layout, a, b);
}

/// NB fit counting: for every (row i, feature j) increments
/// counts[offsets[j] + codes[i*d + j] * 2 + labels[i]]. `offsets` has
/// d + 1 entries (prefix sums of 2 * domain_size); `counts` has
/// offsets[d] entries. Rows alternate between two accumulator lanes;
/// lane sums are integers, so the counts equal a plain row-order loop.
void CountCodeLabelPairs(const uint32_t* codes, const uint8_t* labels,
                         size_t n, size_t d, const size_t* offsets,
                         uint32_t* counts);

/// Tree split scan: per-code stats of `feature` over the node's rows
/// (row_ids[0..n)). Increments count[c] / pos_count[c] and appends each
/// code to `touched` the first time it is seen (count[c] == 0 before the
/// increment). The row loads are unrolled two at a time but the updates
/// apply in row order, so `touched` order and all counts equal a plain
/// row-order loop.
void SplitStatsScan(const uint32_t* codes, size_t num_features,
                    const uint8_t* labels, const uint32_t* row_ids, size_t n,
                    size_t feature, uint32_t* count, uint32_t* pos_count,
                    std::vector<uint32_t>& touched);

/// Process-wide packed-path counters for bench reporting, summed with
/// relaxed atomics (same pattern as GlobalKernelCacheTotals): matrix
/// builds, rows packed and the words holding them (build_words / rows =
/// average words per row), pairwise evaluations routed through the packed
/// path, and the words those evaluations scanned (an upper bound
/// where early exit applies).
struct PackedStats {
  uint64_t builds = 0;
  uint64_t rows = 0;
  uint64_t build_words = 0;
  uint64_t evals = 0;
  uint64_t eval_words = 0;
};

/// Snapshot of the totals accumulated so far; monotone, never reset
/// implicitly. Benches scope them by subtracting two snapshots
/// (bench::PackedStatsScope).
PackedStats GlobalPackedStats();

/// Zeroes the process-wide totals (test isolation).
void ResetGlobalPackedStats();

/// Accumulates one packed-matrix build of `rows` rows / `words` words.
void AccumulatePackedBuild(uint64_t rows, uint64_t words);

/// Accumulates `evals` pairwise evaluations spanning `words` words.
void AccumulatePackedEvals(uint64_t evals, uint64_t words);

}  // namespace simd
}  // namespace hamlet

#endif  // HAMLET_SIMD_SIMD_H_
