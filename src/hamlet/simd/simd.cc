#include "hamlet/simd/simd.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace hamlet {
namespace simd {

namespace {

/// Process-wide packed-path totals (relaxed atomics; concurrent fits each
/// accumulate locally and flush sums, readers run after the fits).
std::atomic<uint64_t> g_packed_builds{0};
std::atomic<uint64_t> g_packed_rows{0};
std::atomic<uint64_t> g_packed_build_words{0};
std::atomic<uint64_t> g_packed_evals{0};
std::atomic<uint64_t> g_packed_eval_words{0};

/// Bit-twiddling population count (Hacker's Delight).
inline uint32_t Popcount(uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ull);
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<uint32_t>((x * 0x0101010101010101ull) >> 56);
}

/// Mismatched fields of one XOR word via the guard-bit carry trick: a
/// field of x + add_mask carries into its guard bit iff the field of x is
/// non-zero, and the carry cannot cross fields (max field sum is
/// 2^field_bits - 2). Padding fields are zero in both rows, so they never
/// carry.
inline uint32_t WordMismatches(uint64_t x, const PackedLayout& layout) {
  return Popcount((x + layout.add_mask) & layout.guard_mask);
}

/// One (row, feature) pass of the NB counting loop; shared by both lanes.
inline void CountOneRow(const uint32_t* row, uint8_t label, size_t d,
                        const size_t* offsets, uint32_t* counts) {
  for (size_t j = 0; j < d; ++j) {
    counts[offsets[j] + static_cast<size_t>(row[j]) * 2 + label] += 1;
  }
}

}  // namespace

PackedLayout PackedLayout::ForMaxCode(uint32_t max_code, size_t d) {
  uint32_t value_bits = 1;
  while (value_bits < 32 && (max_code >> value_bits) != 0) ++value_bits;
  PackedLayout layout;
  layout.num_features = d;
  layout.field_bits = value_bits + 1;
  layout.fields_per_word = 64 / layout.field_bits;
  layout.words_per_row =
      d == 0 ? 0
             : (d + layout.fields_per_word - 1) / layout.fields_per_word;
  for (size_t f = 0; f < layout.fields_per_word; ++f) {
    const size_t base = f * layout.field_bits;
    layout.guard_mask |= uint64_t{1} << (base + layout.field_bits - 1);
    layout.add_mask |= ((uint64_t{1} << (layout.field_bits - 1)) - 1)
                       << base;
  }
  return layout;
}

PackedLayout PackedLayout::ForDomains(const uint32_t* domains, size_t d) {
  uint32_t max_code = 0;
  for (size_t j = 0; j < d; ++j) {
    if (domains[j] > 0) max_code = std::max(max_code, domains[j] - 1);
  }
  return ForMaxCode(max_code, d);
}

void PackedLayout::PackRow(const uint32_t* codes, uint64_t* out) const {
#ifndef NDEBUG
  const uint64_t value_mask = (uint64_t{1} << (field_bits - 1)) - 1;
#endif
  size_t j = 0;
  for (size_t w = 0; w < words_per_row; ++w) {
    uint64_t word = 0;
    const size_t in_word = std::min(num_features - j, fields_per_word);
    for (size_t f = 0; f < in_word; ++f, ++j) {
      assert(static_cast<uint64_t>(codes[j]) <= value_mask);
      word |= static_cast<uint64_t>(codes[j]) << (f * field_bits);
    }
    out[w] = word;
  }
}

uint32_t PackedLayout::UnpackCode(const uint64_t* row, size_t j) const {
  assert(j < num_features);
  const size_t w = j / fields_per_word;
  const size_t f = j % fields_per_word;
  const uint64_t value_mask = (uint64_t{1} << (field_bits - 1)) - 1;
  return static_cast<uint32_t>((row[w] >> (f * field_bits)) & value_mask);
}

size_t PackedMismatchCount(const PackedLayout& layout, const uint64_t* a,
                           const uint64_t* b) {
  size_t mismatches = 0;
  for (size_t w = 0; w < layout.words_per_row; ++w) {
    mismatches += WordMismatches(a[w] ^ b[w], layout);
  }
  return mismatches;
}

size_t PackedMismatchCountBounded(const PackedLayout& layout,
                                  const uint64_t* a, const uint64_t* b,
                                  size_t limit) {
  size_t mismatches = 0;
  for (size_t w = 0; w < layout.words_per_row; ++w) {
    mismatches += WordMismatches(a[w] ^ b[w], layout);
    if (mismatches >= limit) return mismatches;
  }
  return mismatches;
}

void CountCodeLabelPairs(const uint32_t* codes, const uint8_t* labels,
                         size_t n, size_t d, const size_t* offsets,
                         uint32_t* counts) {
  // Odd rows count into a second histogram, which breaks the
  // store-to-load dependency between adjacent rows hitting the same
  // cell; the lane sums are integers, so the totals are exact. Short
  // inputs skip the second histogram.
  if (d == 0 || n < 8) {
    for (size_t i = 0; i < n; ++i) {
      CountOneRow(codes + i * d, labels[i], d, offsets, counts);
    }
    return;
  }
  const size_t total = offsets[d];
  std::vector<uint32_t> odd(total, 0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    CountOneRow(codes + i * d, labels[i], d, offsets, counts);
    CountOneRow(codes + (i + 1) * d, labels[i + 1], d, offsets, odd.data());
  }
  if (i < n) CountOneRow(codes + i * d, labels[i], d, offsets, counts);
  for (size_t k = 0; k < total; ++k) counts[k] += odd[k];
}

void SplitStatsScan(const uint32_t* codes, size_t num_features,
                    const uint8_t* labels, const uint32_t* row_ids, size_t n,
                    size_t feature, uint32_t* count, uint32_t* pos_count,
                    std::vector<uint32_t>& touched) {
  // The gathers (row id -> code, label) run two rows ahead so both loads
  // are in flight; the stat updates stay in row order, which keeps
  // `touched` (first-seen order) and all counts equal to a plain loop.
  const auto update = [&](uint32_t c, uint8_t label) {
    if (count[c] == 0) touched.push_back(c);
    ++count[c];
    pos_count[c] += label;
  };
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const size_t r0 = row_ids[i];
    const size_t r1 = row_ids[i + 1];
    const uint32_t c0 = codes[r0 * num_features + feature];
    const uint32_t c1 = codes[r1 * num_features + feature];
    const uint8_t l0 = labels[r0];
    const uint8_t l1 = labels[r1];
    update(c0, l0);
    update(c1, l1);
  }
  if (i < n) {
    const size_t r = row_ids[i];
    update(codes[r * num_features + feature], labels[r]);
  }
}

PackedStats GlobalPackedStats() {
  PackedStats stats;
  stats.builds = g_packed_builds.load(std::memory_order_relaxed);
  stats.rows = g_packed_rows.load(std::memory_order_relaxed);
  stats.build_words = g_packed_build_words.load(std::memory_order_relaxed);
  stats.evals = g_packed_evals.load(std::memory_order_relaxed);
  stats.eval_words = g_packed_eval_words.load(std::memory_order_relaxed);
  return stats;
}

void ResetGlobalPackedStats() {
  g_packed_builds.store(0, std::memory_order_relaxed);
  g_packed_rows.store(0, std::memory_order_relaxed);
  g_packed_build_words.store(0, std::memory_order_relaxed);
  g_packed_evals.store(0, std::memory_order_relaxed);
  g_packed_eval_words.store(0, std::memory_order_relaxed);
}

void AccumulatePackedBuild(uint64_t rows, uint64_t words) {
  g_packed_builds.fetch_add(1, std::memory_order_relaxed);
  g_packed_rows.fetch_add(rows, std::memory_order_relaxed);
  g_packed_build_words.fetch_add(words, std::memory_order_relaxed);
}

void AccumulatePackedEvals(uint64_t evals, uint64_t words) {
  g_packed_evals.fetch_add(evals, std::memory_order_relaxed);
  g_packed_eval_words.fetch_add(words, std::memory_order_relaxed);
}

}  // namespace simd
}  // namespace hamlet
