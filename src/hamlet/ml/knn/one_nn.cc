#include "hamlet/ml/knn/one_nn.h"

#include <cassert>
#include <memory>
#include <utility>

#include "hamlet/io/model_io.h"

namespace hamlet {
namespace ml {

Status OneNearestNeighbor::Fit(const DataView& train) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  train_ = CodeMatrix(train);
  packed_train_ = PackedCodeMatrix(train_);
  RecordTrainDomains(train);
  return Status::OK();
}

Status OneNearestNeighbor::SaveBody(io::ModelWriter& writer) const {
  if (train_.num_rows() == 0) {
    return Status::FailedPrecondition("1nn: Save before Fit");
  }
  writer.WriteCodeMatrix(train_);
  return writer.status();
}

Result<std::unique_ptr<OneNearestNeighbor>> OneNearestNeighbor::LoadBody(
    io::ModelReader& reader, const std::vector<uint32_t>& domains) {
  auto model = std::make_unique<OneNearestNeighbor>();
  HAMLET_RETURN_IF_ERROR(reader.ReadCodeMatrix(&model->train_));
  if (model->train_.num_features() != domains.size()) {
    return Status::InvalidArgument(
        "corrupt model: 1nn matrix feature count disagrees with the header");
  }
  if (model->train_.num_rows() == 0) {
    return Status::InvalidArgument("corrupt model: 1nn matrix has no rows");
  }
  for (size_t j = 0; j < domains.size(); ++j) {
    // The matrix carries its own domain sizes; the header is the serving
    // contract, so the two must agree for request validation to hold.
    if (model->train_.domain_size(j) != domains[j]) {
      return Status::InvalidArgument(
          "corrupt model: 1nn matrix domains disagree with the header");
    }
  }
  // Pack only after validation: every code is proven < its domain, so the
  // canonical layout covers the matrix.
  model->packed_train_ = PackedCodeMatrix(model->train_);
  return Result<std::unique_ptr<OneNearestNeighbor>>(std::move(model));
}

size_t OneNearestNeighbor::NearestIndexOfPacked(const uint64_t* query) const {
  assert(train_.num_rows() > 0);
  const simd::PackedLayout& layout = packed_train_.layout();
  size_t best = 0;
  size_t best_dist = layout.num_features + 1;
  const size_t n = train_.num_rows();
  // Packed scan with a word-granular early exit once the running distance
  // reaches the best; ties break toward the earliest training row. Any
  // returned value >= best_dist means "not better" (the true distance is
  // at least that), so the (best, best_dist) updates are exactly those of
  // the scalar per-feature scan.
  for (size_t r = 0; r < n; ++r) {
    const size_t dist = simd::PackedMismatchCountBounded(
        layout, packed_train_.row(r), query, best_dist);
    if (dist < best_dist) {
      best_dist = dist;
      best = r;
      if (dist == 0) break;
    }
  }
  simd::AccumulatePackedEvals(
      n, static_cast<uint64_t>(n) * layout.words_per_row);
  return best;
}

size_t OneNearestNeighbor::NearestIndexOfCodes(const uint32_t* query) const {
  const simd::PackedLayout& layout = packed_train_.layout();
  uint64_t* packed_query = ThreadLocalPackScratch(layout.words_per_row);
  layout.PackRow(query, packed_query);
  return NearestIndexOfPacked(packed_query);
}

size_t OneNearestNeighbor::NearestIndex(const DataView& view,
                                        size_t i) const {
  assert(view.num_features() == train_.num_features());
  // Materialise the query once; the scan then runs on contiguous arrays.
  return NearestIndexOfCodes(view.ScratchRowCodes(i));
}

uint8_t OneNearestNeighbor::Predict(const DataView& view, size_t i) const {
  return train_.label(NearestIndex(view, i));
}

std::vector<uint8_t> OneNearestNeighbor::PredictAll(
    const DataView& view) const {
  assert(view.num_features() == train_.num_features());
  // Each worker thread packs its query row into its own scratch slab.
  const simd::PackedLayout& layout = packed_train_.layout();
  return DensePredictAll(view, [&](const CodeMatrix& queries, size_t i) {
    uint64_t* packed_query = ThreadLocalPackScratch(layout.words_per_row);
    layout.PackRow(queries.row(i), packed_query);
    return train_.label(NearestIndexOfPacked(packed_query));
  });
}

}  // namespace ml
}  // namespace hamlet
