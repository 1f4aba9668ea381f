#include "hamlet/ml/tree/decision_tree.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "hamlet/io/model_io.h"
#include "hamlet/simd/simd.h"

namespace hamlet {
namespace ml {

namespace {

/// Candidate split for one feature at one node.
struct BestSplit {
  double score = 0.0;   // criterion score (selection)
  double gain = 0.0;    // impurity reduction (cp test)
  int feature = -1;
  // Categories (codes) routed left, in Breiman order.
  std::vector<uint32_t> left_codes;
  size_t n_left = 0;
  size_t n_right = 0;
};

}  // namespace

DecisionTree::DecisionTree(DecisionTreeConfig config)
    : config_(config) {}

std::string DecisionTree::name() const {
  return std::string("dt-") + SplitCriterionName(config_.criterion);
}

Status DecisionTree::Fit(const DataView& train) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  // Materialise once; the split scans and row partitioning below touch
  // every (row, feature) pair at every tree level.
  const CodeMatrix m(train);
  nodes_.clear();
  root_ = -1;
  num_features_ = m.num_features();

  scratch_count_.assign(num_features_, {});
  scratch_pos_.assign(num_features_, {});
  for (size_t j = 0; j < num_features_; ++j) {
    scratch_count_[j].assign(m.domain_size(j), 0);
    scratch_pos_[j].assign(m.domain_size(j), 0);
  }

  std::vector<uint32_t> rows(m.num_rows());
  std::iota(rows.begin(), rows.end(), 0u);

  // Root risk for the cp test: impurity(root) * n.
  size_t pos = 0;
  for (size_t i = 0; i < m.num_rows(); ++i) pos += m.label(i);
  const double root_risk =
      static_cast<double>(m.num_rows()) *
      NodeImpurity(config_.criterion, pos, m.num_rows());

  root_ = BuildNode(m, rows, 0, rows.size(), 0, root_risk);

  scratch_count_.clear();
  scratch_pos_.clear();
  RecordTrainDomains(train);
  return Status::OK();
}

Status DecisionTree::SaveBody(io::ModelWriter& writer) const {
  if (root_ < 0) return Status::FailedPrecondition("dt: Save before Fit");
  writer.WriteU32(static_cast<uint32_t>(config_.criterion));
  writer.WriteU64(config_.minsplit);
  writer.WriteF64(config_.cp);
  writer.WriteU64(config_.max_depth);
  writer.WriteU32(static_cast<uint32_t>(config_.unseen_policy));
  writer.WriteU64(num_features_);
  writer.WriteI32(root_);
  writer.WriteU64(nodes_.size());
  for (const TreeNode& node : nodes_) {
    writer.WriteI32(node.feature);
    writer.WriteU8Vec(node.goes_left);
    writer.WriteU8Vec(node.code_seen);
    writer.WriteI32(node.left);
    writer.WriteI32(node.right);
    writer.WriteI32(node.majority_child);
    writer.WriteU8(node.prediction);
    writer.WriteU32(node.count);
    writer.WriteU32(node.pos_count);
    writer.WriteU32(node.depth);
  }
  return writer.status();
}

Result<std::unique_ptr<DecisionTree>> DecisionTree::LoadBody(
    io::ModelReader& reader, const std::vector<uint32_t>& domains) {
  const size_t num_features = domains.size();
  DecisionTreeConfig config;
  uint32_t criterion, policy;
  uint64_t minsplit, max_depth, d, num_nodes;
  double cp;
  int32_t root;
  HAMLET_RETURN_IF_ERROR(reader.ReadU32(&criterion));
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&minsplit));
  HAMLET_RETURN_IF_ERROR(reader.ReadF64(&cp));
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&max_depth));
  HAMLET_RETURN_IF_ERROR(reader.ReadU32(&policy));
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&d));
  HAMLET_RETURN_IF_ERROR(reader.ReadI32(&root));
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&num_nodes));
  if (criterion > static_cast<uint32_t>(SplitCriterion::kGainRatio)) {
    return Status::InvalidArgument("corrupt model: unknown tree criterion");
  }
  if (policy > static_cast<uint32_t>(UnseenPolicy::kMajorityBranch)) {
    return Status::InvalidArgument(
        "corrupt model: unknown tree unseen-code policy");
  }
  if (d != num_features) {
    return Status::InvalidArgument(
        "corrupt model: tree feature count disagrees with the header");
  }
  if (num_nodes == 0 || num_nodes > io::kMaxVectorElements ||
      root < 0 || static_cast<uint64_t>(root) >= num_nodes) {
    return Status::InvalidArgument("corrupt model: bad tree root/node count");
  }
  config.criterion = static_cast<SplitCriterion>(criterion);
  config.minsplit = static_cast<size_t>(minsplit);
  config.cp = cp;
  config.max_depth = static_cast<size_t>(max_depth);
  config.unseen_policy = static_cast<UnseenPolicy>(policy);

  auto model = std::make_unique<DecisionTree>(config);
  model->num_features_ = static_cast<size_t>(d);
  model->root_ = root;
  model->nodes_.resize(static_cast<size_t>(num_nodes));
  const auto valid_child = [&](int c) {
    return c >= 0 && static_cast<uint64_t>(c) < num_nodes;
  };
  for (TreeNode& node : model->nodes_) {
    HAMLET_RETURN_IF_ERROR(reader.ReadI32(&node.feature));
    HAMLET_RETURN_IF_ERROR(reader.ReadU8Vec(&node.goes_left));
    HAMLET_RETURN_IF_ERROR(reader.ReadU8Vec(&node.code_seen));
    HAMLET_RETURN_IF_ERROR(reader.ReadI32(&node.left));
    HAMLET_RETURN_IF_ERROR(reader.ReadI32(&node.right));
    HAMLET_RETURN_IF_ERROR(reader.ReadI32(&node.majority_child));
    HAMLET_RETURN_IF_ERROR(reader.ReadU8(&node.prediction));
    HAMLET_RETURN_IF_ERROR(reader.ReadU32(&node.count));
    HAMLET_RETURN_IF_ERROR(reader.ReadU32(&node.pos_count));
    HAMLET_RETURN_IF_ERROR(reader.ReadU32(&node.depth));
    // Internal nodes must route to in-range children through in-range
    // features; WalkCodes trusts these invariants.
    if (node.feature >= 0) {
      if (static_cast<uint64_t>(node.feature) >= d ||
          !valid_child(node.left) || !valid_child(node.right) ||
          !valid_child(node.majority_child) ||
          node.goes_left.size() != node.code_seen.size() ||
          node.goes_left.size() >
              domains[static_cast<size_t>(node.feature)]) {
        return Status::InvalidArgument(
            "corrupt model: tree node routing out of range");
      }
    }
  }
  return Result<std::unique_ptr<DecisionTree>>(std::move(model));
}

int DecisionTree::BuildNode(const CodeMatrix& train,
                            std::vector<uint32_t>& rows, size_t begin,
                            size_t end, size_t depth, double root_risk) {
  const size_t n = end - begin;
  assert(n > 0);

  size_t pos = 0;
  for (size_t i = begin; i < end; ++i) pos += train.label(rows[i]);

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    TreeNode& node = nodes_.back();
    node.count = static_cast<uint32_t>(n);
    node.pos_count = static_cast<uint32_t>(pos);
    node.depth = static_cast<uint32_t>(depth);
    node.prediction = (2 * pos > n) ? 1 : 0;
  }

  // Stopping: purity, size, depth.
  if (pos == 0 || pos == n || n < config_.minsplit ||
      depth >= config_.max_depth) {
    return node_id;
  }

  // Find the best split across features.
  BestSplit best;
  for (size_t j = 0; j < num_features_; ++j) {
    const uint32_t domain = train.domain_size(j);
    if (domain < 2) continue;
    auto& count = scratch_count_[j];
    auto& pos_count = scratch_pos_[j];

    // Per-code stats for this node; track touched codes for cheap reset.
    // The gather runs through the simd split-scan helper (unrolled row
    // loads, updates in row order), so counts and first-seen order are
    // identical to a plain per-row loop.
    std::vector<uint32_t> touched;
    touched.reserve(std::min<size_t>(n, domain));
    simd::SplitStatsScan(train.codes().data(), num_features_,
                         train.labels().data(), rows.data() + begin, n, j,
                         count.data(), pos_count.data(), touched);
    if (touched.size() >= 2) {
      // Breiman ordering: sort codes by positive fraction (ties by code for
      // determinism), then scan the K-1 prefix partitions.
      std::sort(touched.begin(), touched.end(),
                [&](uint32_t a, uint32_t b) {
                  const double fa = static_cast<double>(pos_count[a]) /
                                    static_cast<double>(count[a]);
                  const double fb = static_cast<double>(pos_count[b]) /
                                    static_cast<double>(count[b]);
                  if (fa != fb) return fa < fb;
                  return a < b;
                });
      size_t nl = 0, pl = 0;
      for (size_t k = 0; k + 1 < touched.size(); ++k) {
        nl += count[touched[k]];
        pl += pos_count[touched[k]];
        const size_t nr = n - nl;
        const size_t pr = pos - pl;
        const double score =
            SplitScore(config_.criterion, pl, nl, pr, nr);
        if (score > best.score + 1e-12) {
          best.score = score;
          best.gain = SplitGain(config_.criterion, pl, nl, pr, nr);
          best.feature = static_cast<int>(j);
          best.left_codes.assign(touched.begin(),
                                 touched.begin() + static_cast<long>(k + 1));
          best.n_left = nl;
          best.n_right = nr;
        }
      }
    }
    for (uint32_t c : touched) {
      count[c] = 0;
      pos_count[c] = 0;
    }
  }

  // rpart cp test: the split must improve overall risk by cp * root risk.
  if (best.feature < 0 || best.gain < config_.cp * root_risk ||
      best.n_left == 0 || best.n_right == 0) {
    return node_id;
  }

  // Record routing (and which codes were seen here).
  const size_t j = static_cast<size_t>(best.feature);
  {
    TreeNode& node = nodes_[node_id];
    node.feature = best.feature;
    node.goes_left.assign(train.domain_size(j), 0);
    node.code_seen.assign(train.domain_size(j), 0);
    for (uint32_t c : best.left_codes) node.goes_left[c] = 1;
  }
  for (size_t i = begin; i < end; ++i) {
    nodes_[node_id].code_seen[train.at(rows[i], j)] = 1;
  }

  // Partition rows in place: left block first.
  const auto middle = std::stable_partition(
      rows.begin() + static_cast<long>(begin),
      rows.begin() + static_cast<long>(end), [&](uint32_t r) {
        return nodes_[node_id].goes_left[train.at(r, j)] != 0;
      });
  const size_t mid = static_cast<size_t>(middle - rows.begin());
  assert(mid - begin == best.n_left);

  const int left =
      BuildNode(train, rows, begin, mid, depth + 1, root_risk);
  const int right = BuildNode(train, rows, mid, end, depth + 1, root_risk);
  TreeNode& node = nodes_[node_id];
  node.left = left;
  node.right = right;
  node.majority_child = best.n_left >= best.n_right ? left : right;
  return node_id;
}

Result<uint8_t> DecisionTree::Walk(const DataView& view, size_t i) const {
  // Guard before materialising: an unfitted tree must not touch the view.
  if (root_ < 0) return Status::FailedPrecondition("tree not fitted");
  // WalkCodes indexes the buffer by trained feature id, so the view must
  // select the training feature subset (the Classifier contract).
  assert(view.num_features() == num_features_);
  // Materialise the row once (through the DataView access path) and share
  // the routing logic with the dense batch walker; batch scoring should
  // prefer PredictAll.
  return WalkCodes(view.ScratchRowCodes(i));
}

Result<uint8_t> DecisionTree::WalkCodes(const uint32_t* codes) const {
  if (root_ < 0) return Status::FailedPrecondition("tree not fitted");
  int cur = root_;
  for (;;) {
    const TreeNode& node = nodes_[static_cast<size_t>(cur)];
    if (node.feature < 0) return node.prediction;
    const uint32_t c = codes[static_cast<size_t>(node.feature)];
    const bool in_domain = c < node.goes_left.size();
    const bool seen = in_domain && node.code_seen[c] != 0;
    if (!seen) {
      if (config_.unseen_policy == UnseenPolicy::kError) {
        return Status::NotFound(
            "feature code unseen at a tree node (R packages crash here; "
            "use kMajorityBranch or FK smoothing)");
      }
      cur = node.majority_child;
      continue;
    }
    cur = node.goes_left[c] ? node.left : node.right;
  }
}

Result<uint8_t> DecisionTree::TryPredict(const DataView& view,
                                         size_t i) const {
  return Walk(view, i);
}

uint8_t DecisionTree::FallbackPrediction() const {
  // Under kError the caller should use TryPredict; Predict/PredictAll
  // fall back to the root majority so they stay total.
  return root_ >= 0 ? nodes_[static_cast<size_t>(root_)].prediction : 0;
}

uint8_t DecisionTree::Predict(const DataView& view, size_t i) const {
  Result<uint8_t> r = Walk(view, i);
  return r.ok() ? r.value() : FallbackPrediction();
}

std::vector<uint8_t> DecisionTree::PredictAll(const DataView& view) const {
  // Same rule as Walk: an unfitted tree must not touch the view (and
  // materialising it would be wasted work).
  if (root_ < 0) {
    return std::vector<uint8_t>(view.num_rows(), FallbackPrediction());
  }
  assert(view.num_features() == num_features_);
  return DensePredictAll(view, [&](const CodeMatrix& queries, size_t i) {
    Result<uint8_t> r = WalkCodes(queries.row(i));
    return r.ok() ? r.value() : FallbackPrediction();
  });
}

size_t DecisionTree::num_leaves() const {
  size_t leaves = 0;
  for (const auto& node : nodes_) leaves += node.feature < 0;
  return leaves;
}

size_t DecisionTree::depth() const {
  size_t d = 0;
  for (const auto& node : nodes_) d = std::max<size_t>(d, node.depth);
  return d;
}

std::vector<size_t> DecisionTree::FeatureUseCounts() const {
  std::vector<size_t> counts(num_features_, 0);
  for (const auto& node : nodes_) {
    if (node.feature >= 0) ++counts[static_cast<size_t>(node.feature)];
  }
  return counts;
}

}  // namespace ml
}  // namespace hamlet
