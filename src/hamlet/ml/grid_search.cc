#include "hamlet/ml/grid_search.h"

#include <limits>
#include <memory>
#include <utility>

#include "hamlet/common/mutex.h"
#include "hamlet/common/parallel.h"
#include "hamlet/ml/metrics.h"

namespace hamlet {
namespace ml {

ParamGrid& ParamGrid::Add(std::string name, std::vector<double> values) {
  axes_.emplace_back(std::move(name), std::move(values));
  return *this;
}

std::vector<ParamMap> ParamGrid::Enumerate() const {
  size_t total = 1;
  for (const auto& [name, values] : axes_) total *= values.size();
  std::vector<ParamMap> out;
  out.reserve(total);
  if (total == 0) return out;  // an empty axis annihilates the product
  // Odometer over the axes (last axis fastest) builds each assignment
  // exactly once instead of re-copying partial maps level by level.
  std::vector<size_t> digits(axes_.size(), 0);
  for (size_t a = 0; a < total; ++a) {
    ParamMap m;
    for (size_t k = 0; k < axes_.size(); ++k) {
      m.emplace(axes_[k].first, axes_[k].second[digits[k]]);
    }
    out.push_back(std::move(m));
    for (size_t k = axes_.size(); k-- > 0;) {
      if (++digits[k] < axes_[k].second.size()) break;
      digits[k] = 0;
    }
  }
  return out;
}

namespace {

/// The best fitted model offered so far. Workers offer in scheduling
/// order, but what is kept does not depend on that order: the highest
/// validation accuracy, ties going to the lowest enumeration index, which
/// is the model a serial scan in enumeration order would keep.
class Winner {
 public:
  /// Keeps `model` if it beats the kept one; the losing model is freed on
  /// return, outside the lock.
  void Offer(size_t index, double val_accuracy,
             std::unique_ptr<Classifier> model) HAMLET_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (val_accuracy > val_accuracy_ ||
        (val_accuracy == val_accuracy_ && index < index_)) {
      index_ = index;
      val_accuracy_ = val_accuracy;
      model_.swap(model);
    }
  }

  /// Moves the kept point into `result`; call once every offer is in.
  void TakeInto(const std::vector<ParamMap>& points,
                GridSearchResult& result) HAMLET_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    result.best_val_accuracy = val_accuracy_;
    if (model_ == nullptr) return;  // empty axis, no points
    result.best_params = points[index_];
    result.best_model = std::move(model_);
  }

 private:
  Mutex mu_;
  size_t index_ HAMLET_GUARDED_BY(mu_) = std::numeric_limits<size_t>::max();
  double val_accuracy_ HAMLET_GUARDED_BY(mu_) = -1.0;
  std::unique_ptr<Classifier> model_ HAMLET_GUARDED_BY(mu_);
};

}  // namespace

Result<GridSearchResult> GridSearch(const ModelFactory& factory,
                                    const ParamGrid& grid,
                                    const DataView& train,
                                    const DataView& val) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  const std::vector<ParamMap> points = grid.Enumerate();

  // Every grid point fits and scores independently on the pool and offers
  // its model to the winner, which keeps one and frees the other at once:
  // at most one model per in-flight fit plus the kept one is ever alive.
  Winner winner;
  HAMLET_RETURN_IF_ERROR(parallel::ParallelForStatus(
      points.size(), [&](size_t i) -> Status {
        std::unique_ptr<Classifier> model = factory(points[i]);
        if (model == nullptr) {
          return Status::Internal("model factory returned null");
        }
        HAMLET_RETURN_IF_ERROR(model->Fit(train));
        const double val_accuracy =
            val.num_rows() > 0 ? Accuracy(*model, val) : 0.0;
        winner.Offer(i, val_accuracy, std::move(model));
        return Status::OK();
      }));

  GridSearchResult result;
  result.configurations_tried = points.size();
  winner.TakeInto(points, result);
  return result;
}

double ParamOr(const ParamMap& params, const std::string& key,
               double fallback) {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

}  // namespace ml
}  // namespace hamlet
