// 1-nearest-neighbour classifier over categorical features.
//
// The paper's "braindead" baseline (§3, §5): with one-hot encoding the
// squared Euclidean distance between two rows is 2 × (#mismatching
// features), so 1-NN reduces to Hamming distance over the code vectors.
// Ties break toward the earliest training row, keeping results
// deterministic. No hyper-parameters (as in RWeka's IB1).

#ifndef HAMLET_ML_KNN_ONE_NN_H_
#define HAMLET_ML_KNN_ONE_NN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/data/code_matrix.h"
#include "hamlet/data/packed_code_matrix.h"
#include "hamlet/ml/classifier.h"

namespace hamlet {
namespace ml {

/// Brute-force 1-NN with early-exit Hamming distance.
class OneNearestNeighbor : public Classifier {
 public:
  OneNearestNeighbor() = default;

  Status Fit(const DataView& train) override;
  uint8_t Predict(const DataView& view, size_t i) const override;
  /// Dense batch path: materialises `view` into a CodeMatrix once and
  /// scans contiguous query rows; bit-identical to per-row Predict.
  std::vector<uint8_t> PredictAll(const DataView& view) const override;
  std::string name() const override { return "1nn"; }

  ModelFamily family() const override { return ModelFamily::kOneNn; }
  /// 1-NN's "model" is its training matrix; the whole CodeMatrix is the
  /// serialized body.
  Status SaveBody(io::ModelWriter& writer) const override;
  static Result<std::unique_ptr<OneNearestNeighbor>> LoadBody(
      io::ModelReader& reader, const std::vector<uint32_t>& domains);

  /// Index (into the training view's rows) of the nearest neighbour of
  /// row i of `view`; exposed for the §5 analysis of FK-driven matching.
  size_t NearestIndex(const DataView& view, size_t i) const;

  /// Same, for an already-materialised query of num_features codes.
  size_t NearestIndexOfCodes(const uint32_t* query) const;

 private:
  /// The scan itself, over a query packed under packed_train_'s layout.
  /// Word-granular early exit: a row is abandoned once its running
  /// mismatch count reaches the best distance so far. Because the
  /// per-word counts accumulate monotonically — exactly like the scalar
  /// per-feature loop — the surviving (best, best_dist) pair is
  /// bit-identical to the scalar scan, including ties breaking toward
  /// the earliest training row.
  size_t NearestIndexOfPacked(const uint64_t* query) const;

  // Training data is materialised row-major for scan locality, with a
  // bit-packed mirror (built at Fit/LoadBody) for the distance scan.
  CodeMatrix train_;
  PackedCodeMatrix packed_train_;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_KNN_ONE_NN_H_
