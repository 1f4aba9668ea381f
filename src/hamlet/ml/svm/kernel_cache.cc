#include "hamlet/ml/svm/kernel_cache.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "hamlet/common/logging.h"

namespace hamlet {
namespace ml {

namespace {

/// Process-wide totals, accumulated when caches are destroyed. Relaxed
/// atomics: concurrent grid-search fits each own a private cache and only
/// the sums are shared; readers (bench reporting) run after the fits.
std::atomic<uint64_t> g_total_hits{0};
std::atomic<uint64_t> g_total_misses{0};

}  // namespace

KernelCacheTotals GlobalKernelCacheTotals() {
  KernelCacheTotals totals;
  totals.hits = g_total_hits.load(std::memory_order_relaxed);
  totals.misses = g_total_misses.load(std::memory_order_relaxed);
  return totals;
}

void ResetGlobalKernelCacheTotals() {
  g_total_hits.store(0, std::memory_order_relaxed);
  g_total_misses.store(0, std::memory_order_relaxed);
}

size_t KernelCacheBytesFromEnv() {
  const char* value = std::getenv("HAMLET_SMO_CACHE_MB");
  if (value == nullptr || *value == '\0') return kDefaultKernelCacheBytes;
  char* end = nullptr;
  const unsigned long long mb = std::strtoull(value, &end, 10);
  // Positive integer MiB only; the cap is 1 TiB or whatever keeps the
  // byte product representable in size_t (4095 MiB on 32-bit hosts),
  // whichever is smaller.
  constexpr unsigned long long kMaxMb =
      std::min(1ull << 20,
               static_cast<unsigned long long>(
                   std::numeric_limits<size_t>::max() >> 20));
  if (end == value || *end != '\0' || mb == 0 || mb > kMaxMb) {
    if (FirstOccurrence(std::string("smo_cache_mb:") + value)) {
      std::fprintf(stderr,
                   "hamlet: unrecognized HAMLET_SMO_CACHE_MB=\"%s\" "
                   "(expected a positive integer number of MiB); using "
                   "the default %zu MiB\n",
                   value, kDefaultKernelCacheBytes >> 20);
    }
    return kDefaultKernelCacheBytes;
  }
  return static_cast<size_t>(mb) << 20;
}

KernelCache::KernelCache(CodeMatrix matrix, const KernelConfig& kernel,
                         size_t cache_bytes)
    : matrix_(std::move(matrix)),
      packed_(matrix_),
      kernel_(kernel) {
  const size_t n = matrix_.num_rows();
  if (cache_bytes == 0) cache_bytes = KernelCacheBytesFromEnv();
  const size_t row_bytes = (n == 0 ? 1 : n) * sizeof(float);
  // Clamp to [2, max(n, 1)] rows: two cacheable rows for the solver's
  // pairwise update, never more slots than the problem has rows (an
  // empty matrix keeps a single dummy slot instead of budget/4 phantom
  // ones).
  capacity_rows_ = std::min(std::max(cache_bytes / row_bytes, size_t{2}),
                            std::max(n, size_t{1}));
  diag_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* ri = packed_.row(i);
    diag_[i] = static_cast<float>(
        PackedKernelEval(kernel_, packed_.layout(), ri, ri));
  }
  packed_evals_ += n;
  packed_words_ += static_cast<uint64_t>(n) * packed_.layout().words_per_row;
  slot_of_row_.assign(n, -1);
  row_of_slot_.assign(capacity_rows_, -1);
  prev_.assign(capacity_rows_, -1);
  next_.assign(capacity_rows_, -1);
  slots_.reserve(capacity_rows_ < 64 ? capacity_rows_ : 64);
  member_mark_.assign(n, 0);
  slot_era_.assign(capacity_rows_, 0);
  slot_full_.assign(capacity_rows_, 1);
}

KernelCache::~KernelCache() {
  g_total_hits.fetch_add(hits_, std::memory_order_relaxed);
  g_total_misses.fetch_add(misses_, std::memory_order_relaxed);
  simd::AccumulatePackedEvals(packed_evals_, packed_words_);
}

bool KernelCache::Cached(size_t i) const {
  assert(i < slot_of_row_.size());
  return slot_of_row_[i] >= 0;
}

void KernelCache::ComputeRow(size_t i, float* out) const {
  const simd::PackedLayout& layout = packed_.layout();
  const uint64_t* ri = packed_.row(i);
  // Each entry is the kernel value narrowed to float, bit-identical to
  // At() and Diag(). Under an active restriction only the restricted
  // columns are computed; the others stay whatever the slot held before
  // (callers must not read them).
  size_t cols;
  if (restrict_idx_.empty()) {
    const size_t n = matrix_.num_rows();
    for (size_t t = 0; t < n; ++t) {
      out[t] = static_cast<float>(
          PackedKernelEval(kernel_, layout, ri, packed_.row(t)));
    }
    cols = n;
  } else {
    for (const int32_t col : restrict_idx_) {
      const size_t t = static_cast<size_t>(col);
      out[t] = static_cast<float>(
          PackedKernelEval(kernel_, layout, ri, packed_.row(t)));
    }
    cols = restrict_idx_.size();
  }
  packed_evals_ += cols;
  packed_words_ += static_cast<uint64_t>(cols) * layout.words_per_row;
}

void KernelCache::RestrictActive(const int32_t* indices, size_t count) {
  restrict_idx_.assign(indices, indices + count);
  ++restrict_serial_;
  for (size_t k = 0; k < count; ++k) {
    member_mark_[static_cast<size_t>(indices[k])] = restrict_serial_;
  }
}

void KernelCache::ClearActiveRestriction() {
  if (restrict_idx_.empty()) return;
  restrict_idx_.clear();
  // Close the era: partial rows computed under the lifted restriction
  // recompute on their next fetch; full rows stay valid.
  ++era_;
}

void KernelCache::Detach(int32_t slot) {
  const int32_t p = prev_[slot], nx = next_[slot];
  if (p >= 0) next_[p] = nx;
  else head_ = nx;
  if (nx >= 0) prev_[nx] = p;
  else tail_ = p;
  prev_[slot] = next_[slot] = -1;
}

void KernelCache::PushFront(int32_t slot) {
  prev_[slot] = -1;
  next_[slot] = head_;
  if (head_ >= 0) prev_[head_] = slot;
  head_ = slot;
  if (tail_ < 0) tail_ = slot;
}

void KernelCache::MoveToFront(int32_t slot) {
  if (head_ == slot) return;
  Detach(slot);
  PushFront(slot);
}

float KernelCache::At(size_t i, size_t j) const {
  assert(i < matrix_.num_rows() && j < matrix_.num_rows());
  if (i == j) return diag_[i];
  // While restricted, only restricted indices may be probed (a partial
  // resident row holds valid entries exactly at the restriction).
  assert(InRestriction(i) && InRestriction(j));
  const int32_t si = slot_of_row_[i];
  if (si >= 0 && SlotUsable(si)) return slots_[static_cast<size_t>(si)][j];
  const int32_t sj = slot_of_row_[j];
  if (sj >= 0 && SlotUsable(sj)) return slots_[static_cast<size_t>(sj)][i];
  ++packed_evals_;
  packed_words_ += packed_.layout().words_per_row;
  return static_cast<float>(PackedKernelEval(
      kernel_, packed_.layout(), packed_.row(i), packed_.row(j)));
}

const float* KernelCache::Row(size_t i) {
  assert(i < matrix_.num_rows());
  assert(InRestriction(i));
  int32_t slot = slot_of_row_[i];
  if (slot >= 0 && SlotUsable(slot)) {
    ++hits_;
    MoveToFront(slot);
    return slots_[static_cast<size_t>(slot)].data();
  }
  ++misses_;
  if (slot >= 0) {
    // Resident but computed under a restriction that has since been
    // lifted: its dead columns are stale, so recompute in place (the
    // slot keeps its storage and becomes most recently used).
    MoveToFront(slot);
  } else if (used_slots_ < capacity_rows_) {
    slot = static_cast<int32_t>(used_slots_++);
    slots_.emplace_back(matrix_.num_rows());
    row_of_slot_[slot] = static_cast<int32_t>(i);
    slot_of_row_[i] = slot;
    PushFront(slot);
  } else {
    // Evict the least-recently-used row and reuse its storage.
    slot = tail_;
    assert(slot >= 0);
    slot_of_row_[static_cast<size_t>(row_of_slot_[slot])] = -1;
    Detach(slot);
    row_of_slot_[slot] = static_cast<int32_t>(i);
    slot_of_row_[i] = slot;
    PushFront(slot);
  }
  ComputeRow(i, slots_[static_cast<size_t>(slot)].data());
  slot_era_[static_cast<size_t>(slot)] = era_;
  slot_full_[static_cast<size_t>(slot)] =
      restrict_idx_.empty() ? uint8_t{1} : uint8_t{0};
  return slots_[static_cast<size_t>(slot)].data();
}

}  // namespace ml
}  // namespace hamlet
