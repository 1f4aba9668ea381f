// Test-local MLP oracle: the straightforward trainer the production
// ml::Mlp is checked against bit for bit. Column-of-vectors first layer,
// a fresh gradient column per touched unit and minibatch, one-hot units
// recomputed per row and epoch, and full dense dot products with no
// skipping of ReLU zeros — the same arithmetic in the same order as the
// flat production kernels, with none of their bookkeeping. SaveBody
// writes the production body format, so io::SaveModel bytes compare
// directly. None of this is library code.

#ifndef HAMLET_TESTS_MLP_REFERENCE_H_
#define HAMLET_TESTS_MLP_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "hamlet/common/rng.h"
#include "hamlet/common/status.h"
#include "hamlet/data/one_hot.h"
#include "hamlet/data/view.h"
#include "hamlet/io/model_io.h"
#include "hamlet/ml/ann/mlp.h"
#include "hamlet/ml/classifier.h"

namespace hamlet {
namespace test {

class ReferenceMlp : public ml::Classifier {
 public:
  explicit ReferenceMlp(ml::MlpConfig config) : config_(std::move(config)) {}

  std::string name() const override { return "ann-mlp-reference"; }
  ml::ModelFamily family() const override { return ml::ModelFamily::kMlp; }

  uint8_t Predict(const DataView& view, size_t i) const override {
    return PredictProbability(view, i) >= 0.5 ? 1 : 0;
  }

  double PredictProbability(const DataView& view, size_t i) const {
    std::vector<uint32_t> active;
    one_hot_.ActiveUnits(view, i, active);
    for (uint32_t& u : active) {
      if (u >= col_w_.size()) u = static_cast<uint32_t>(col_w_.size() - 1);
    }
    std::vector<std::vector<double>> acts;
    return Forward(active, acts);
  }

  /// First-layer hidden units that ReLU zeroes on every row of `view`.
  size_t DeadHiddenUnits(const DataView& view) const {
    std::vector<bool> alive(h1_, false);
    std::vector<uint32_t> active;
    std::vector<std::vector<double>> acts;
    for (size_t i = 0; i < view.num_rows(); ++i) {
      one_hot_.ActiveUnits(view, i, active);
      Forward(active, acts);
      for (size_t k = 0; k < h1_; ++k) alive[k] = alive[k] || acts[0][k] > 0;
    }
    return static_cast<size_t>(std::count(alive.begin(), alive.end(), false));
  }

  Status SaveBody(io::ModelWriter& writer) const override {
    writer.WriteU64(h1_);
    writer.WriteU64(col_w_.size());
    for (const std::vector<double>& col : col_w_) {
      for (double w : col) writer.WriteF64(w);
    }
    writer.WriteF64Vec(b1_);
    writer.WriteU64(layers_.size());
    for (const DenseLayer& layer : layers_) {
      writer.WriteU64(layer.in);
      writer.WriteU64(layer.out);
      writer.WriteF64Vec(layer.w);
      writer.WriteF64Vec(layer.b);
    }
    return writer.status();
  }

  Status Fit(const DataView& train) override {
    if (train.num_rows() == 0) {
      return Status::InvalidArgument("empty training view");
    }
    one_hot_ = OneHotMap(train);
    const size_t input_dim = one_hot_.dimension();
    if (config_.hidden_sizes.empty()) {
      return Status::InvalidArgument("need at least one hidden layer");
    }
    h1_ = config_.hidden_sizes[0];

    Rng rng(config_.seed);
    auto init = [&](size_t fan_in) {
      return rng.Normal() * std::sqrt(2.0 / static_cast<double>(fan_in));
    };

    const size_t active_per_row = train.num_features();
    col_w_.assign(input_dim, std::vector<double>(h1_));
    col_m_.assign(input_dim, std::vector<double>(h1_, 0.0));
    col_v_.assign(input_dim, std::vector<double>(h1_, 0.0));
    for (auto& col : col_w_) {
      for (double& w : col) w = init(active_per_row);
    }
    b1_.assign(h1_, 0.0);
    m_b1_.assign(h1_, 0.0);
    v_b1_.assign(h1_, 0.0);

    layers_.clear();
    size_t prev = h1_;
    std::vector<size_t> dense_sizes(config_.hidden_sizes.begin() + 1,
                                    config_.hidden_sizes.end());
    dense_sizes.push_back(1);
    for (size_t size : dense_sizes) {
      DenseLayer layer;
      layer.in = prev;
      layer.out = size;
      layer.w.resize(size * prev);
      for (double& w : layer.w) w = init(prev);
      layer.b.assign(size, 0.0);
      layer.mw.assign(size * prev, 0.0);
      layer.vw.assign(size * prev, 0.0);
      layer.mb.assign(size, 0.0);
      layer.vb.assign(size, 0.0);
      layers_.push_back(std::move(layer));
      prev = size;
    }
    size_t adam_t = 0;

    const size_t n = train.num_rows();
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);

    std::vector<uint32_t> active;
    std::vector<std::vector<double>> acts;
    std::vector<std::vector<double>> deltas(layers_.size() + 1);

    const size_t batch = std::max<size_t>(1, config_.batch_size);
    std::vector<std::vector<double>> gw(layers_.size());
    std::vector<std::vector<double>> gb(layers_.size());
    for (size_t l = 0; l < layers_.size(); ++l) {
      gw[l].assign(layers_[l].w.size(), 0.0);
      gb[l].assign(layers_[l].b.size(), 0.0);
    }
    std::vector<double> g_b1(h1_, 0.0);
    std::vector<std::vector<double>> g_cols;
    std::vector<uint32_t> g_units;
    std::vector<int> unit_slot(input_dim, -1);

    const double lr = config_.learning_rate;
    const double lambda = config_.l2;

    for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
      rng.Shuffle(order);
      for (size_t start = 0; start < n; start += batch) {
        const size_t stop = std::min(n, start + batch);
        const double inv_bs = 1.0 / static_cast<double>(stop - start);

        for (size_t l = 0; l < layers_.size(); ++l) {
          std::fill(gw[l].begin(), gw[l].end(), 0.0);
          std::fill(gb[l].begin(), gb[l].end(), 0.0);
        }
        std::fill(g_b1.begin(), g_b1.end(), 0.0);
        for (uint32_t u : g_units) unit_slot[u] = -1;
        g_units.clear();
        g_cols.clear();

        for (size_t idx = start; idx < stop; ++idx) {
          const size_t i = order[idx];
          one_hot_.ActiveUnits(train, i, active);
          const double p = Forward(active, acts);
          const double y = static_cast<double>(train.label(i));

          deltas[layers_.size()].assign(1, p - y);

          for (size_t l = layers_.size(); l-- > 0;) {
            const DenseLayer& layer = layers_[l];
            const std::vector<double>& in = acts[l];
            const std::vector<double>& dout = deltas[l + 1];
            std::vector<double>& din = deltas[l];
            din.assign(layer.in, 0.0);
            for (size_t o = 0; o < layer.out; ++o) {
              const double d = dout[o];
              if (d == 0.0) continue;
              double* gw_row = &gw[l][o * layer.in];
              const double* w_row = &layer.w[o * layer.in];
              for (size_t k = 0; k < layer.in; ++k) {
                gw_row[k] += d * in[k];
                din[k] += d * w_row[k];
              }
              gb[l][o] += d;
            }
            for (size_t k = 0; k < layer.in; ++k) {
              if (in[k] <= 0.0) din[k] = 0.0;
            }
          }

          const std::vector<double>& d1 = deltas[0];
          for (size_t k = 0; k < h1_; ++k) g_b1[k] += d1[k];
          for (uint32_t u : active) {
            int slot = unit_slot[u];
            if (slot < 0) {
              slot = static_cast<int>(g_cols.size());
              unit_slot[u] = slot;
              g_units.push_back(u);
              g_cols.emplace_back(h1_, 0.0);
            }
            std::vector<double>& gcol = g_cols[static_cast<size_t>(slot)];
            for (size_t k = 0; k < h1_; ++k) gcol[k] += d1[k];
          }
        }

        ++adam_t;
        const double bias1 =
            1.0 - std::pow(config_.beta1, static_cast<double>(adam_t));
        const double bias2 =
            1.0 - std::pow(config_.beta2, static_cast<double>(adam_t));
        for (size_t l = 0; l < layers_.size(); ++l) {
          DenseLayer& layer = layers_[l];
          for (size_t t = 0; t < layer.w.size(); ++t) {
            const double g = gw[l][t] * inv_bs + lambda * layer.w[t];
            AdamStep(layer.w[t], g, layer.mw[t], layer.vw[t], lr, bias1,
                     bias2);
          }
          for (size_t t = 0; t < layer.b.size(); ++t) {
            AdamStep(layer.b[t], gb[l][t] * inv_bs, layer.mb[t],
                     layer.vb[t], lr, bias1, bias2);
          }
        }
        for (size_t k = 0; k < h1_; ++k) {
          AdamStep(b1_[k], g_b1[k] * inv_bs, m_b1_[k], v_b1_[k], lr, bias1,
                   bias2);
        }
        for (size_t s = 0; s < g_units.size(); ++s) {
          const uint32_t u = g_units[s];
          std::vector<double>& col = col_w_[u];
          std::vector<double>& m = col_m_[u];
          std::vector<double>& v = col_v_[u];
          const std::vector<double>& gcol = g_cols[s];
          for (size_t k = 0; k < h1_; ++k) {
            const double g = gcol[k] * inv_bs + lambda * col[k];
            AdamStep(col[k], g, m[k], v[k], lr, bias1, bias2);
          }
        }
      }
    }
    RecordTrainDomains(train);
    return Status::OK();
  }

 private:
  struct DenseLayer {
    size_t in = 0, out = 0;
    std::vector<double> w;  // out x in, row-major
    std::vector<double> b;
    std::vector<double> mw, vw, mb, vb;
  };

  void AdamStep(double& param, double grad, double& m, double& v, double lr,
                double bias1, double bias2) const {
    m = config_.beta1 * m + (1.0 - config_.beta1) * grad;
    v = config_.beta2 * v + (1.0 - config_.beta2) * grad * grad;
    const double mhat = m / bias1;
    const double vhat = v / bias2;
    param -= lr * mhat / (std::sqrt(vhat) + config_.epsilon);
  }

  static double Sigmoid(double z) {
    if (z >= 0) {
      const double e = std::exp(-z);
      return 1.0 / (1.0 + e);
    }
    const double e = std::exp(z);
    return e / (1.0 + e);
  }

  double Forward(const std::vector<uint32_t>& active,
                 std::vector<std::vector<double>>& acts) const {
    acts.resize(layers_.size() + 1);
    std::vector<double>& h1 = acts[0];
    h1 = b1_;
    for (uint32_t u : active) {
      const std::vector<double>& col = col_w_[u];
      for (size_t k = 0; k < h1_; ++k) h1[k] += col[k];
    }
    for (double& v : h1) v = v > 0.0 ? v : 0.0;
    for (size_t l = 0; l < layers_.size(); ++l) {
      const DenseLayer& layer = layers_[l];
      const std::vector<double>& in = acts[l];
      std::vector<double>& out = acts[l + 1];
      out.assign(layer.out, 0.0);
      for (size_t o = 0; o < layer.out; ++o) {
        const double* wrow = &layer.w[o * layer.in];
        double z = layer.b[o];
        for (size_t k = 0; k < layer.in; ++k) z += wrow[k] * in[k];
        out[o] = z;
      }
      if (l + 1 < layers_.size()) {
        for (double& v : out) v = v > 0.0 ? v : 0.0;
      }
    }
    return Sigmoid(acts.back()[0]);
  }

  ml::MlpConfig config_;
  OneHotMap one_hot_;
  std::vector<std::vector<double>> col_w_;
  std::vector<std::vector<double>> col_m_, col_v_;
  std::vector<double> b1_, m_b1_, v_b1_;
  std::vector<DenseLayer> layers_;
  size_t h1_ = 0;
};

}  // namespace test
}  // namespace hamlet

#endif  // HAMLET_TESTS_MLP_REFERENCE_H_
