#include "hamlet/ml/svm/svm.h"

#include <cassert>
#include <memory>
#include <utility>

#include "hamlet/io/model_io.h"
#include "hamlet/ml/svm/kernel_cache.h"

namespace hamlet {
namespace ml {

KernelSvm::KernelSvm(SvmConfig config) : config_(config) {}

std::string KernelSvm::name() const {
  return std::string("svm-") + KernelTypeName(config_.kernel.type);
}

Status KernelSvm::Fit(const DataView& train) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  // Materialise once (prefix subsample when capped; the view's row order
  // is already a shuffle of the original data); the kernel-row cache and
  // support-vector extraction below run on the dense buffer.
  CodeMatrix m(train, config_.max_train_rows);
  d_ = m.num_features();
  const size_t n = m.num_rows();

  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) pos += m.label(i);
  if (pos == 0 || pos == n || d_ == 0) {
    // Single-class data, or no features to separate on: fall back to a
    // constant prediction at the majority label (ties go to 1).
    is_constant_ = true;
    constant_prediction_ = (2 * pos >= n) ? 1 : 0;
    converged_ = true;
    sv_rows_.clear();
    sv_coeff_.clear();
    sv_packed_.clear();
    last_cache_hits_ = 0;
    last_cache_misses_ = 0;
    last_iterations_ = 0;
    last_shrink_events_ = 0;
    last_unshrink_events_ = 0;
    fitted_ = true;
    RecordTrainDomains(train);
    return Status::OK();
  }
  is_constant_ = false;

  std::vector<int8_t> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = m.label(i) == 1 ? 1 : -1;

  // Lazy kernel rows instead of the old upfront O(n^2) Gram: SMO only
  // touches the rows its working sets select, so peak memory is bounded
  // by the cache budget and early-converging grid cells skip most of the
  // matrix. The cache owns the code matrix from here on.
  SmoConfig smo_cfg;
  smo_cfg.C = config_.C;
  smo_cfg.tolerance = config_.tolerance;
  smo_cfg.max_iterations = config_.max_iterations;
  KernelCache cache(std::move(m), config_.kernel, config_.smo_cache_bytes);
  Result<SmoSolution> sol = SolveSmo(cache, y, smo_cfg);
  if (!sol.ok()) return sol.status();

  converged_ = sol.value().converged;
  bias_ = sol.value().bias;
  last_cache_hits_ = sol.value().cache_hits;
  last_cache_misses_ = sol.value().cache_misses;
  last_iterations_ = sol.value().iterations;
  last_shrink_events_ = sol.value().shrink_events;
  last_unshrink_events_ = sol.value().unshrink_events;
  sv_rows_.clear();
  sv_coeff_.clear();
  const std::vector<uint32_t>& rows = cache.matrix().codes();
  for (size_t i = 0; i < n; ++i) {
    const double a = sol.value().alpha[i];
    if (a > 1e-10) {
      sv_coeff_.push_back(a * static_cast<double>(y[i]));
      sv_rows_.insert(sv_rows_.end(), rows.begin() + static_cast<long>(i * d_),
                      rows.begin() + static_cast<long>((i + 1) * d_));
    }
  }
  PackSupportVectors(cache.matrix().domain_sizes());
  fitted_ = true;
  RecordTrainDomains(train);
  return Status::OK();
}

void KernelSvm::PackSupportVectors(const std::vector<uint32_t>& domains) {
  sv_layout_ = simd::PackedLayout::ForDomains(domains.data(), d_);
  const size_t num_sv = sv_coeff_.size();
  const size_t words_per_row = sv_layout_.words_per_row;
  sv_packed_.assign(num_sv * words_per_row, 0);
  for (size_t s = 0; s < num_sv; ++s) {
    sv_layout_.PackRow(sv_rows_.data() + s * d_,
                       sv_packed_.data() + s * words_per_row);
  }
  simd::AccumulatePackedBuild(num_sv, sv_packed_.size());
}

Status KernelSvm::SaveBody(io::ModelWriter& writer) const {
  if (!fitted_) {
    return Status::FailedPrecondition("svm: Save before Fit");
  }
  writer.WriteU32(static_cast<uint32_t>(config_.kernel.type));
  writer.WriteF64(config_.kernel.gamma);
  writer.WriteI32(config_.kernel.degree);
  writer.WriteU64(d_);
  writer.WriteU8(is_constant_ ? 1 : 0);
  writer.WriteU8(constant_prediction_);
  writer.WriteU8(converged_ ? 1 : 0);
  writer.WriteF64(bias_);
  writer.WriteF64Vec(sv_coeff_);
  writer.WriteU32Vec(sv_rows_);
  return writer.status();
}

Result<std::unique_ptr<KernelSvm>> KernelSvm::LoadBody(
    io::ModelReader& reader, const std::vector<uint32_t>& domains) {
  SvmConfig config;
  uint32_t kernel_type;
  HAMLET_RETURN_IF_ERROR(reader.ReadU32(&kernel_type));
  if (kernel_type > static_cast<uint32_t>(KernelType::kRbf)) {
    return Status::InvalidArgument("corrupt model: unknown svm kernel type");
  }
  config.kernel.type = static_cast<KernelType>(kernel_type);
  HAMLET_RETURN_IF_ERROR(reader.ReadF64(&config.kernel.gamma));
  HAMLET_RETURN_IF_ERROR(reader.ReadI32(&config.kernel.degree));
  auto model = std::make_unique<KernelSvm>(config);
  uint64_t d;
  uint8_t is_constant, converged;
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&d));
  if (d != domains.size()) {
    return Status::InvalidArgument(
        "corrupt model: svm feature count disagrees with the header");
  }
  model->d_ = static_cast<size_t>(d);
  HAMLET_RETURN_IF_ERROR(reader.ReadU8(&is_constant));
  HAMLET_RETURN_IF_ERROR(reader.ReadU8(&model->constant_prediction_));
  HAMLET_RETURN_IF_ERROR(reader.ReadU8(&converged));
  model->is_constant_ = is_constant != 0;
  model->converged_ = converged != 0;
  HAMLET_RETURN_IF_ERROR(reader.ReadF64(&model->bias_));
  HAMLET_RETURN_IF_ERROR(reader.ReadF64Vec(&model->sv_coeff_));
  HAMLET_RETURN_IF_ERROR(reader.ReadU32Vec(&model->sv_rows_));
  if (model->sv_rows_.size() != model->sv_coeff_.size() * model->d_) {
    return Status::InvalidArgument(
        "corrupt model: svm support-vector rows do not match coefficients");
  }
  for (size_t s = 0; s < model->sv_coeff_.size(); ++s) {
    const uint32_t* row = model->sv_rows_.data() + s * model->d_;
    for (size_t j = 0; j < model->d_; ++j) {
      if (row[j] >= domains[j]) {
        return Status::OutOfRange(
            "corrupt model: svm support-vector code outside its domain");
      }
    }
  }
  if (model->constant_prediction_ > 1) {
    return Status::InvalidArgument(
        "corrupt model: svm constant prediction not a binary label");
  }
  model->PackSupportVectors(domains);
  model->fitted_ = true;
  return Result<std::unique_ptr<KernelSvm>>(std::move(model));
}

double KernelSvm::DecisionValueOfPacked(const uint64_t* query) const {
  double f = bias_;
  const size_t num_sv = sv_coeff_.size();
  const size_t words_per_row = sv_layout_.words_per_row;
  for (size_t s = 0; s < num_sv; ++s) {
    f += sv_coeff_[s] *
         PackedKernelEval(config_.kernel, sv_layout_,
                          sv_packed_.data() + s * words_per_row, query);
  }
  simd::AccumulatePackedEvals(
      num_sv, static_cast<uint64_t>(num_sv) * words_per_row);
  return f;
}

double KernelSvm::DecisionValueOfCodes(const uint32_t* query) const {
  uint64_t* packed_query = ThreadLocalPackScratch(sv_layout_.words_per_row);
  sv_layout_.PackRow(query, packed_query);
  return DecisionValueOfPacked(packed_query);
}

double KernelSvm::DecisionValue(const DataView& view, size_t i) const {
  assert(view.num_features() == d_);
  return DecisionValueOfCodes(view.ScratchRowCodes(i));
}

uint8_t KernelSvm::Predict(const DataView& view, size_t i) const {
  if (is_constant_) return constant_prediction_;
  return DecisionValue(view, i) >= 0.0 ? 1 : 0;
}

std::vector<uint8_t> KernelSvm::PredictAll(const DataView& view) const {
  if (is_constant_) {
    return std::vector<uint8_t>(view.num_rows(), constant_prediction_);
  }
  assert(view.num_features() == d_);
  // Each worker thread packs its query row into its own scratch slab.
  return DensePredictAll(view, [&](const CodeMatrix& queries, size_t i) {
    uint64_t* packed_query = ThreadLocalPackScratch(sv_layout_.words_per_row);
    sv_layout_.PackRow(queries.row(i), packed_query);
    return DecisionValueOfPacked(packed_query) >= 0.0 ? uint8_t{1}
                                                      : uint8_t{0};
  });
}

}  // namespace ml
}  // namespace hamlet
