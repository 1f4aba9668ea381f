// Multi-layer perceptron for binary classification over one-hot inputs.
//
// Matches the paper's ANN (§3.2): two hidden layers of 256 and 64 ReLU
// units, sigmoid output, L2 weight penalty, trained with Adam. The input
// is the one-hot encoding of the categorical row; because exactly one unit
// per feature is active, the first layer runs sparsely (sum of the active
// units' weight rows) and its gradient/Adam state updates lazily, only for
// the units a minibatch touches. The dense layers skip inputs that ReLU
// zeroed.

#ifndef HAMLET_ML_ANN_MLP_H_
#define HAMLET_ML_ANN_MLP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/data/one_hot.h"
#include "hamlet/ml/classifier.h"

namespace hamlet {
namespace ml {

/// Hyper-parameters; defaults follow the paper's architecture and the
/// midpoints of its tuning grids.
struct MlpConfig {
  std::vector<size_t> hidden_sizes = {256, 64};
  double learning_rate = 1e-2;  ///< Adam step size (grid: 1e-3..1e-1)
  double l2 = 1e-3;             ///< L2 penalty (grid: 1e-4..1e-2)
  size_t epochs = 12;
  size_t batch_size = 32;
  /// Adam moment decay (paper: library defaults).
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  uint64_t seed = 1;
};

/// Feed-forward network with a sparse first layer.
class Mlp : public Classifier {
 public:
  explicit Mlp(MlpConfig config = {});

  Status Fit(const DataView& train) override;
  uint8_t Predict(const DataView& view, size_t i) const override;
  /// Materialises `view` once and scores it in row chunks, one scratch
  /// per chunk; bit-identical to Predict on every row.
  std::vector<uint8_t> PredictAll(const DataView& view) const override;
  std::string name() const override { return "ann-mlp"; }

  ModelFamily family() const override { return ModelFamily::kMlp; }
  /// Serializes the inference state only (first-layer weights, biases,
  /// dense layers). Adam moments are training state: Fit releases them
  /// before it returns, so neither a fitted nor a loaded model holds any.
  Status SaveBody(io::ModelWriter& writer) const override;
  static Result<std::unique_ptr<Mlp>> LoadBody(
      io::ModelReader& reader, const std::vector<uint32_t>& domains);

  /// P(y = 1 | x) for row i of `view`.
  double PredictProbability(const DataView& view, size_t i) const;

 private:
  struct DenseLayer {
    size_t in = 0, out = 0;
    std::vector<double> w;  // out x in, row-major
    std::vector<double> b;
  };
  /// Caller-owned per-row working memory of Forward (mlp.cc).
  struct Scratch;

  /// Unit indices of `codes` (one per feature) for prediction; a unit
  /// past the one-hot dimension is clamped to the last unit.
  void InferenceUnits(const uint32_t* codes, std::vector<uint32_t>& units)
      const;

  /// Forward pass from one active one-hot unit per feature; fills
  /// `scratch` with every layer's activations (post-ReLU) and their live
  /// (non-zero) indices, and returns the output probability. The one
  /// forward kernel of both Fit and prediction.
  double Forward(const uint32_t* units, Scratch& scratch) const;

  MlpConfig config_;
  OneHotMap one_hot_;
  bool fitted_ = false;
  size_t h1_ = 0;
  // First layer, unit-major for sparse access: w1_[u * h1_ + k] is the
  // weight from one-hot unit u to hidden unit k.
  std::vector<double> w1_;
  std::vector<double> b1_;
  std::vector<DenseLayer> layers_;  // hidden2..output
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_ANN_MLP_H_
