// Kernel SVM classifier (C-SVC) built on the SMO solver.
//
// Covers the paper's three SVM variants: linear, quadratic polynomial and
// Gaussian RBF. Prediction uses only the support vectors. Labels {0,1} map
// to {-1,+1} internally.

#ifndef HAMLET_ML_SVM_SVM_H_
#define HAMLET_ML_SVM_SVM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/data/code_matrix.h"
#include "hamlet/data/packed_code_matrix.h"
#include "hamlet/ml/classifier.h"
#include "hamlet/ml/svm/kernel.h"
#include "hamlet/ml/svm/smo.h"

namespace hamlet {
namespace ml {

/// Hyper-parameters; defaults match the paper's grid midpoints.
struct SvmConfig {
  KernelConfig kernel;
  double C = 1.0;
  double tolerance = 1e-3;
  size_t max_iterations = 20000;
  /// Optional cap on training rows (0 = use all). When set, a
  /// deterministic stratified-ish prefix subsample keeps the quadratic
  /// SMO solve affordable on the larger simulated datasets; the paper's
  /// qualitative comparisons are unaffected because every variant
  /// (JoinAll/NoJoin/NoFK) sees the same subsample.
  size_t max_train_rows = 0;
  /// Kernel-row cache budget in bytes for the SMO solve (see
  /// KernelCache). 0 = HAMLET_SMO_CACHE_MB or the 64 MiB default; at
  /// least two rows are always cached. The solve is bit-identical at any
  /// budget; only speed and memory change. Tests pin tiny budgets
  /// through this knob.
  size_t smo_cache_bytes = 0;
};

/// C-SVC with categorical-native kernels.
class KernelSvm : public Classifier {
 public:
  explicit KernelSvm(SvmConfig config = {});

  Status Fit(const DataView& train) override;
  uint8_t Predict(const DataView& view, size_t i) const override;
  /// Dense batch path: materialises `view` into a CodeMatrix once and
  /// evaluates kernels on contiguous rows; bit-identical to per-row
  /// Predict.
  std::vector<uint8_t> PredictAll(const DataView& view) const override;
  std::string name() const override;

  ModelFamily family() const override { return ModelFamily::kKernelSvm; }
  /// Serializes the kernel config plus the fitted decision function
  /// (support-vector codes, alpha*y coefficients, bias); solver-only
  /// knobs (C, tolerance, cache budget) are not part of the model.
  Status SaveBody(io::ModelWriter& writer) const override;
  static Result<std::unique_ptr<KernelSvm>> LoadBody(
      io::ModelReader& reader, const std::vector<uint32_t>& domains);

  /// Signed decision value f(x) for row i of `view`.
  double DecisionValue(const DataView& view, size_t i) const;

  /// Same, for an already-materialised query of num_features codes.
  double DecisionValueOfCodes(const uint32_t* query) const;

  size_t num_support_vectors() const { return sv_rows_.size() / (d_ ? d_ : 1); }
  bool converged() const { return converged_; }

  /// Kernel-row cache counters of the most recent Fit (0 before any fit
  /// and for the degenerate constant-classifier path).
  uint64_t last_cache_hits() const { return last_cache_hits_; }
  uint64_t last_cache_misses() const { return last_cache_misses_; }

  /// SMO solver counters of the most recent Fit (0 before any fit and
  /// for the degenerate constant-classifier path): pairwise-update
  /// iterations, shrink passes that deactivated points, and full
  /// gradient reconstructions.
  size_t last_iterations() const { return last_iterations_; }
  size_t last_shrink_events() const { return last_shrink_events_; }
  size_t last_unshrink_events() const { return last_unshrink_events_; }

 private:
  /// Rebuilds the packed support-vector slab (sv_layout_ / sv_packed_)
  /// from sv_rows_ under the canonical layout for `domains`; called at
  /// the end of Fit and LoadBody. Queries are packed into the same
  /// layout at prediction time.
  void PackSupportVectors(const std::vector<uint32_t>& domains);
  /// Decision value for a query already packed under sv_layout_; the
  /// shared kernel-sum loop of Predict/PredictAll/DecisionValue.
  double DecisionValueOfPacked(const uint64_t* query) const;

  SvmConfig config_;
  bool fitted_ = false;
  size_t d_ = 0;
  std::vector<uint32_t> sv_rows_;    // support vectors, row-major codes
  std::vector<double> sv_coeff_;     // alpha_i * y_i per support vector
  simd::PackedLayout sv_layout_;     // packing layout shared with queries
  std::vector<uint64_t> sv_packed_;  // sv_rows_ packed, words_per_row each
  double bias_ = 0.0;
  uint8_t constant_prediction_ = 0;  // used when training was single-class
  bool is_constant_ = false;
  bool converged_ = false;
  uint64_t last_cache_hits_ = 0;
  uint64_t last_cache_misses_ = 0;
  size_t last_iterations_ = 0;
  size_t last_shrink_events_ = 0;
  size_t last_unshrink_events_ = 0;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_SVM_SVM_H_
