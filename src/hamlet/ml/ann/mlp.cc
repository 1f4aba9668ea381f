#include "hamlet/ml/ann/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "hamlet/common/parallel.h"
#include "hamlet/common/rng.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/io/model_io.h"

namespace hamlet {
namespace ml {

namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// One Adam step on a single parameter.
inline void AdamStep(double& param, double grad, double& m, double& v,
                     double lr, double beta1, double beta2, double eps,
                     double bias1, double bias2) {
  m = beta1 * m + (1.0 - beta1) * grad;
  v = beta2 * v + (1.0 - beta2) * grad * grad;
  const double mhat = m / bias1;
  const double vhat = v / bias2;
  param -= lr * mhat / (std::sqrt(vhat) + eps);
}

/// Adam first and second moments of one parameter array.
struct AdamMoments {
  explicit AdamMoments(size_t n) : m(n, 0.0), v(n, 0.0) {}
  std::vector<double> m, v;
};

/// Rectifies x[0, n) in place (ReLU) and lists the indices left positive
/// in `live`; returns how many there are.
size_t Rectify(double* x, size_t n, uint32_t* live) {
  size_t num_live = 0;
  for (size_t k = 0; k < n; ++k) {
    if (x[k] > 0.0) {
      live[num_live++] = static_cast<uint32_t>(k);
    } else {
      x[k] = 0.0;
    }
  }
  return num_live;
}

}  // namespace

// Activations of every layer back to back: the first hidden layer at
// offset[0], the output of dense layer l at offset[l + 1] (the last one is
// the output logit). live holds, at the same offsets, the indices of each
// dense layer's non-zero inputs; num_live[l] counts them.
struct Mlp::Scratch {
  explicit Scratch(const Mlp& mlp) : offset(mlp.layers_.size() + 1) {
    for (size_t l = 0; l < mlp.layers_.size(); ++l) {
      offset[l + 1] = offset[l] + mlp.layers_[l].in;
    }
    act.resize(offset.back() + 1);
    live.resize(offset.back());
    num_live.resize(mlp.layers_.size());
  }

  std::vector<size_t> offset;
  std::vector<double> act;
  std::vector<uint32_t> live;
  std::vector<size_t> num_live;
};

namespace {

// The two dense-layer kernels below take Mlp::DenseLayer as `Layer`.

/// out = b + W x over the live inputs of x. A skipped input is an exact
/// zero, whose product adds nothing for finite weights, and each output
/// still sums its live inputs in ascending k order, so the result is
/// bit-identical to the full dot product. Four outputs run at a time so
/// their addition chains overlap.
template <typename Layer>
void DenseForward(const Layer& layer, const double* x, const uint32_t* live,
                  size_t num_live, double* out) {
  const size_t in = layer.in;
  size_t o = 0;
  for (; o + 4 <= layer.out; o += 4) {
    const double* w0 = layer.w.data() + o * in;
    const double* w1 = w0 + in;
    const double* w2 = w1 + in;
    const double* w3 = w2 + in;
    double z0 = layer.b[o], z1 = layer.b[o + 1];
    double z2 = layer.b[o + 2], z3 = layer.b[o + 3];
    for (size_t t = 0; t < num_live; ++t) {
      const uint32_t k = live[t];
      const double xk = x[k];
      z0 += w0[k] * xk;
      z1 += w1[k] * xk;
      z2 += w2[k] * xk;
      z3 += w3[k] * xk;
    }
    out[o] = z0;
    out[o + 1] = z1;
    out[o + 2] = z2;
    out[o + 3] = z3;
  }
  for (; o < layer.out; ++o) {
    const double* w = layer.w.data() + o * in;
    double z = layer.b[o];
    for (size_t t = 0; t < num_live; ++t) z += w[live[t]] * x[live[t]];
    out[o] = z;
  }
}

/// Backpropagates one row through a dense layer: adds the row's weight
/// and bias gradients into gw/gb and writes the delta of the layer input
/// into din (zero where the input is not live, i.e. the ReLU derivative).
/// Only outputs with a non-zero delta contribute, in ascending order, and
/// only live inputs are visited — the same accumulation order per element
/// as the dense loop, so sums are bit-identical. `hot` is scratch for the
/// outputs with a non-zero delta.
template <typename Layer>
void DenseBackward(const Layer& layer, const double* x, const uint32_t* live,
                   size_t num_live, const double* dout, uint32_t* hot,
                   double* gw, double* gb, double* din) {
  const size_t in = layer.in;
  std::fill(din, din + in, 0.0);
  size_t num_hot = 0;
  for (size_t o = 0; o < layer.out; ++o) {
    if (dout[o] != 0.0) hot[num_hot++] = static_cast<uint32_t>(o);
  }
  size_t h = 0;
  for (; h + 4 <= num_hot; h += 4) {
    const size_t o0 = hot[h], o1 = hot[h + 1], o2 = hot[h + 2],
                 o3 = hot[h + 3];
    const double d0 = dout[o0], d1 = dout[o1], d2 = dout[o2], d3 = dout[o3];
    const double* w0 = layer.w.data() + o0 * in;
    const double* w1 = layer.w.data() + o1 * in;
    const double* w2 = layer.w.data() + o2 * in;
    const double* w3 = layer.w.data() + o3 * in;
    double* g0 = gw + o0 * in;
    double* g1 = gw + o1 * in;
    double* g2 = gw + o2 * in;
    double* g3 = gw + o3 * in;
    for (size_t t = 0; t < num_live; ++t) {
      const uint32_t k = live[t];
      const double xk = x[k];
      g0[k] += d0 * xk;
      g1[k] += d1 * xk;
      g2[k] += d2 * xk;
      g3[k] += d3 * xk;
      din[k] = din[k] + d0 * w0[k] + d1 * w1[k] + d2 * w2[k] + d3 * w3[k];
    }
    gb[o0] += d0;
    gb[o1] += d1;
    gb[o2] += d2;
    gb[o3] += d3;
  }
  for (; h < num_hot; ++h) {
    const size_t o = hot[h];
    const double d = dout[o];
    const double* w = layer.w.data() + o * in;
    double* g = gw + o * in;
    for (size_t t = 0; t < num_live; ++t) {
      const uint32_t k = live[t];
      g[k] += d * x[k];
      din[k] += d * w[k];
    }
    gb[o] += d;
  }
}

}  // namespace

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {}

double Mlp::Forward(const uint32_t* units, Scratch& scratch) const {
  // Layer 1 (sparse): h1 = ReLU(b1 + sum of the active units' rows).
  double* act = scratch.act.data();
  std::copy(b1_.begin(), b1_.end(), act);
  for (size_t f = 0; f < one_hot_.num_features(); ++f) {
    const double* row = w1_.data() + static_cast<size_t>(units[f]) * h1_;
    for (size_t k = 0; k < h1_; ++k) act[k] += row[k];
  }

  // Dense layers; all but the last use ReLU.
  for (size_t l = 0; l < layers_.size(); ++l) {
    const size_t at = scratch.offset[l];
    uint32_t* live = scratch.live.data() + at;
    scratch.num_live[l] = Rectify(act + at, layers_[l].in, live);
    DenseForward(layers_[l], act + at, live, scratch.num_live[l],
                 act + scratch.offset[l + 1]);
  }
  return Sigmoid(act[scratch.offset.back()]);
}

Status Mlp::Fit(const DataView& train) {
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
    // He initialisation for ReLU layers.
    return rng.Normal() * std::sqrt(2.0 / static_cast<double>(fan_in));
  };

  // First (sparse) layer: one weight row per one-hot unit. Fan-in for a
  // hidden unit of the first layer is the number of features (active
  // units per row).
  const size_t num_features = train.num_features();
  w1_.resize(input_dim * h1_);
  for (double& w : w1_) w = init(num_features);
  b1_.assign(h1_, 0.0);

  // Dense layers: hidden[1..] then the single output unit.
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
    layers_.push_back(std::move(layer));
    prev = size;
  }
  const size_t num_dense = layers_.size();

  // Adam moments are training state: they live in this frame and are
  // released when Fit returns.
  AdamMoments adam_w1(w1_.size()), adam_b1(h1_);
  std::vector<AdamMoments> adam_w, adam_b;
  for (const DenseLayer& layer : layers_) {
    adam_w.emplace_back(layer.w.size());
    adam_b.emplace_back(layer.b.size());
  }
  size_t adam_t = 0;

  // The active one-hot units of every training row, computed once.
  const CodeMatrix codes(train);
  const size_t n = codes.num_rows();
  std::vector<uint32_t> units(n * num_features);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < num_features; ++j) {
      units[i * num_features + j] = one_hot_.UnitIndex(j, codes.row(i)[j]);
    }
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);

  // Everything below is sized once; the minibatch loop does not allocate.
  // (A batch larger than n is one batch of n rows either way.)
  const size_t batch = std::min(n, std::max<size_t>(1, config_.batch_size));
  Scratch scratch(*this);
  std::vector<double> delta(scratch.act.size());  // dense layers' deltas
  std::vector<uint32_t> hot(*std::max_element(dense_sizes.begin(),
                                              dense_sizes.end()));
  std::vector<std::vector<double>> gw(num_dense), gb(num_dense);
  for (size_t l = 0; l < num_dense; ++l) {
    gw[l].assign(layers_[l].w.size(), 0.0);
    gb[l].assign(layers_[l].b.size(), 0.0);
  }
  std::vector<double> g_b1(h1_, 0.0);
  // First-layer gradient: the batch keeps each row's h1 delta, and every
  // touched unit sums the deltas of the rows that activate it, in row
  // order. A unit's rows form a linked list over the batch's (row,
  // feature) entries e = r * num_features + j.
  constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();
  std::vector<double> row_delta(batch * h1_);
  std::vector<double> g_unit(h1_);
  std::vector<uint32_t> unit_slot(input_dim, kEnd);
  std::vector<uint32_t> touched(batch * num_features);
  std::vector<uint32_t> first(batch * num_features);
  std::vector<uint32_t> last(batch * num_features);
  std::vector<uint32_t> next(batch * num_features);

  const double lr = config_.learning_rate;
  const double lambda = config_.l2;
  const double beta1 = config_.beta1, beta2 = config_.beta2;
  const double eps = config_.epsilon;

  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < n; start += batch) {
      const size_t stop = std::min(n, start + batch);
      const double inv_bs = 1.0 / static_cast<double>(stop - start);

      for (size_t l = 0; l < num_dense; ++l) {
        std::fill(gw[l].begin(), gw[l].end(), 0.0);
        std::fill(gb[l].begin(), gb[l].end(), 0.0);
      }
      std::fill(g_b1.begin(), g_b1.end(), 0.0);
      size_t num_touched = 0;

      for (size_t r = 0; r < stop - start; ++r) {
        const size_t i = order[start + r];
        const uint32_t* row_units = units.data() + i * num_features;
        const double p = Forward(row_units, scratch);
        const double y = static_cast<double>(codes.label(i));

        // Output delta for sigmoid + cross-entropy, then backprop through
        // the dense layers; the first layer's delta lands in row_delta.
        double* d1 = row_delta.data() + r * h1_;
        delta[scratch.offset.back()] = p - y;
        for (size_t l = num_dense; l-- > 0;) {
          const size_t at = scratch.offset[l];
          DenseBackward(layers_[l], scratch.act.data() + at,
                        scratch.live.data() + at, scratch.num_live[l],
                        delta.data() + scratch.offset[l + 1], hot.data(),
                        gw[l].data(), gb[l].data(),
                        l == 0 ? d1 : delta.data() + at);
        }

        // Sparse first layer: d(h1)/d(row of unit u) = 1 for active u.
        for (size_t k = 0; k < h1_; ++k) g_b1[k] += d1[k];
        for (size_t j = 0; j < num_features; ++j) {
          const uint32_t u = row_units[j];
          const uint32_t e = static_cast<uint32_t>(r * num_features + j);
          next[e] = kEnd;
          uint32_t& slot = unit_slot[u];
          if (slot == kEnd) {
            slot = static_cast<uint32_t>(num_touched++);
            touched[slot] = u;
            first[slot] = e;
          } else {
            next[last[slot]] = e;
          }
          last[slot] = e;
        }
      }

      // Adam updates (L2 added as decoupled-style gradient term).
      ++adam_t;
      const double bias1 =
          1.0 - std::pow(beta1, static_cast<double>(adam_t));
      const double bias2 =
          1.0 - std::pow(beta2, static_cast<double>(adam_t));
      for (size_t l = 0; l < num_dense; ++l) {
        DenseLayer& layer = layers_[l];
        for (size_t t = 0; t < layer.w.size(); ++t) {
          const double g = gw[l][t] * inv_bs + lambda * layer.w[t];
          AdamStep(layer.w[t], g, adam_w[l].m[t], adam_w[l].v[t], lr, beta1,
                   beta2, eps, bias1, bias2);
        }
        for (size_t t = 0; t < layer.b.size(); ++t) {
          AdamStep(layer.b[t], gb[l][t] * inv_bs, adam_b[l].m[t],
                   adam_b[l].v[t], lr, beta1, beta2, eps, bias1, bias2);
        }
      }
      for (size_t k = 0; k < h1_; ++k) {
        AdamStep(b1_[k], g_b1[k] * inv_bs, adam_b1.m[k], adam_b1.v[k], lr,
                 beta1, beta2, eps, bias1, bias2);
      }
      // Lazy per-unit update: only units touched by this batch move
      // (their Adam moments update with the current timestep correction).
      for (size_t s = 0; s < num_touched; ++s) {
        const uint32_t u = touched[s];
        unit_slot[u] = kEnd;
        std::fill(g_unit.begin(), g_unit.end(), 0.0);
        for (uint32_t e = first[s]; e != kEnd; e = next[e]) {
          const double* d1 = row_delta.data() + (e / num_features) * h1_;
          for (size_t k = 0; k < h1_; ++k) g_unit[k] += d1[k];
        }
        const size_t base = static_cast<size_t>(u) * h1_;
        double* w = w1_.data() + base;
        double* m = adam_w1.m.data() + base;
        double* v = adam_w1.v.data() + base;
        for (size_t k = 0; k < h1_; ++k) {
          const double g = g_unit[k] * inv_bs + lambda * w[k];
          AdamStep(w[k], g, m[k], v[k], lr, beta1, beta2, eps, bias1, bias2);
        }
      }
    }
  }
  fitted_ = true;
  RecordTrainDomains(train);
  return Status::OK();
}

Status Mlp::SaveBody(io::ModelWriter& writer) const {
  if (!fitted_) return Status::FailedPrecondition("ann-mlp: Save before Fit");
  writer.WriteU64(h1_);
  writer.WriteU64(one_hot_.dimension());
  // Fixed-size unit rows (h1_ each); lengths are implied, not repeated.
  for (double w : w1_) writer.WriteF64(w);
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

Result<std::unique_ptr<Mlp>> Mlp::LoadBody(
    io::ModelReader& reader, const std::vector<uint32_t>& domains) {
  auto model = std::make_unique<Mlp>();
  model->one_hot_ = OneHotMap(domains);
  uint64_t h1, num_units;
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&h1));
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&num_units));
  if (h1 == 0 || h1 > io::kMaxVectorElements) {
    return Status::InvalidArgument("corrupt model: mlp hidden width");
  }
  if (num_units != model->one_hot_.dimension()) {
    return Status::InvalidArgument(
        "corrupt model: mlp first-layer columns do not match the one-hot "
        "dimension of the header domains");
  }
  model->h1_ = static_cast<size_t>(h1);
  model->w1_.resize(static_cast<size_t>(num_units) * model->h1_);
  for (double& w : model->w1_) HAMLET_RETURN_IF_ERROR(reader.ReadF64(&w));
  HAMLET_RETURN_IF_ERROR(reader.ReadF64Vec(&model->b1_));
  if (model->b1_.size() != model->h1_) {
    return Status::InvalidArgument(
        "corrupt model: mlp first-layer bias does not match hidden width");
  }
  uint64_t num_layers;
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&num_layers));
  if (num_layers == 0 || num_layers > 64) {
    return Status::InvalidArgument("corrupt model: mlp layer count");
  }
  size_t prev = model->h1_;
  for (uint64_t l = 0; l < num_layers; ++l) {
    DenseLayer layer;
    uint64_t in, out;
    HAMLET_RETURN_IF_ERROR(reader.ReadU64(&in));
    HAMLET_RETURN_IF_ERROR(reader.ReadU64(&out));
    HAMLET_RETURN_IF_ERROR(reader.ReadF64Vec(&layer.w));
    HAMLET_RETURN_IF_ERROR(reader.ReadF64Vec(&layer.b));
    layer.in = static_cast<size_t>(in);
    layer.out = static_cast<size_t>(out);
    // Forward indexes w[o * in + k] for o < out, k < in, and chains each
    // layer's input to the previous output — enforce the full shape.
    if (layer.in != prev || layer.out == 0 ||
        layer.w.size() != layer.in * layer.out ||
        layer.b.size() != layer.out) {
      return Status::InvalidArgument(
          "corrupt model: mlp dense-layer shape mismatch");
    }
    prev = layer.out;
    model->layers_.push_back(std::move(layer));
  }
  if (prev != 1) {
    return Status::InvalidArgument(
        "corrupt model: mlp output layer is not a single unit");
  }
  // Restore the architecture knob so config introspection matches.
  model->config_.hidden_sizes.assign(1, model->h1_);
  for (size_t l = 0; l + 1 < model->layers_.size(); ++l) {
    model->config_.hidden_sizes.push_back(model->layers_[l].out);
  }
  model->fitted_ = true;
  return Result<std::unique_ptr<Mlp>>(std::move(model));
}

void Mlp::InferenceUnits(const uint32_t* codes,
                         std::vector<uint32_t>& units) const {
  one_hot_.ActiveUnitsFromCodes(codes, units);
  // Codes can exceed the training domain only if the caller bypassed the
  // dataset's domain bookkeeping; guard anyway.
  const uint32_t last = static_cast<uint32_t>(one_hot_.dimension() - 1);
  for (uint32_t& u : units) u = std::min(u, last);
}

double Mlp::PredictProbability(const DataView& view, size_t i) const {
  assert(one_hot_.num_features() == view.num_features());
  std::vector<uint32_t> units;
  InferenceUnits(view.ScratchRowCodes(i), units);
  Scratch scratch(*this);
  return Forward(units.data(), scratch);
}

uint8_t Mlp::Predict(const DataView& view, size_t i) const {
  return PredictProbability(view, i) >= 0.5 ? 1 : 0;
}

std::vector<uint8_t> Mlp::PredictAll(const DataView& view) const {
  assert(one_hot_.num_features() == view.num_features());
  const CodeMatrix queries(view);
  const size_t n = queries.num_rows();
  std::vector<uint8_t> out(n);
  // Chunks are the unit of parallel work; each reuses one scratch for all
  // of its rows. Rows are keyed by index, so the split changes nothing.
  constexpr size_t kChunkRows = 64;
  parallel::ParallelFor((n + kChunkRows - 1) / kChunkRows, [&](size_t c) {
    Scratch scratch(*this);
    std::vector<uint32_t> units;
    for (size_t i = c * kChunkRows; i < std::min(n, (c + 1) * kChunkRows);
         ++i) {
      InferenceUnits(queries.row(i), units);
      out[i] = Forward(units.data(), scratch) >= 0.5 ? 1 : 0;
    }
  });
  return out;
}

}  // namespace ml
}  // namespace hamlet
