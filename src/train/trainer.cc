#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dot {
namespace train {

double GradNorm(const std::vector<Tensor>& params) {
  double sq = 0;
  for (const auto& p : params) {
    if (!p.has_grad()) continue;
    for (float g : p.grad_vec()) sq += static_cast<double>(g) * g;
  }
  return std::sqrt(sq);
}

double ClipGradNorm(std::vector<Tensor> params, float max_norm) {
  double norm = GradNorm(params);
  if (max_norm > 0 && std::isfinite(norm) &&
      norm > static_cast<double>(max_norm)) {
    float scale = static_cast<float>(static_cast<double>(max_norm) / norm);
    for (auto& p : params) {
      if (!p.has_grad()) continue;
      float* g = p.grad();
      for (int64_t i = 0; i < p.numel(); ++i) g[i] *= scale;
    }
  }
  return norm;
}

void TrainReport::Accumulate(const TrainReport& other) {
  epochs_run += other.epochs_run;
  steps += other.steps;
  skipped_steps += other.skipped_steps;
  rollbacks += other.rollbacks;
  early_stopped = early_stopped || other.early_stopped;
  epoch_losses.insert(epoch_losses.end(), other.epoch_losses.begin(),
                      other.epoch_losses.end());
}

namespace {

/// Fault tolerance for one stage's step loop (DESIGN.md §5d): a step whose
/// loss or gradient norm is non-finite never reaches the optimizer; after
/// `rollback_after` *consecutive* poisoned steps the parameters are
/// restored from the last-good snapshot, which is refreshed at every epoch
/// boundary that saw no poisoned step.
class TrainingGuard {
 public:
  TrainingGuard(const std::string& stage, std::vector<Tensor> params,
                int64_t rollback_after)
      : stage_(stage),
        params_(std::move(params)),
        rollback_after_(rollback_after),
        skipped_(obs::MetricsRegistry::Get().GetCounter(
            "dot_train_skipped_steps_total", {{"stage", stage}})),
        rollbacks_(obs::MetricsRegistry::Get().GetCounter(
            "dot_train_rollbacks_total", {{"stage", stage}})) {
    TakeSnapshot();
  }

  void StepOk() { consecutive_bad_ = 0; }

  /// Records a poisoned (skipped) step; rolls back and returns true once
  /// the consecutive-bad budget is exhausted.
  bool StepBad(const char* what) {
    skipped_->Increment();
    ++skipped_count_;
    epoch_had_bad_ = true;
    ++consecutive_bad_;
    DOT_LOG_WARN << "[" << stage_ << "] skipping step: non-finite " << what
                 << " (" << consecutive_bad_ << " consecutive)";
    if (rollback_after_ > 0 && consecutive_bad_ >= rollback_after_) {
      for (size_t i = 0; i < params_.size(); ++i) {
        params_[i].CopyFrom(snapshot_[i]);
      }
      rollbacks_->Increment();
      ++rollback_count_;
      consecutive_bad_ = 0;
      DOT_LOG_WARN << "[" << stage_ << "] rolled back to last-good weights";
      return true;
    }
    return false;
  }

  /// Call once per epoch: refreshes the snapshot only if the whole epoch
  /// was healthy (a poisoned epoch must not become the rollback target).
  void EndEpoch() {
    if (!epoch_had_bad_) TakeSnapshot();
    epoch_had_bad_ = false;
  }

  int64_t rollback_count() const { return rollback_count_; }
  int64_t skipped_count() const { return skipped_count_; }

 private:
  void TakeSnapshot() {
    snapshot_.clear();
    snapshot_.reserve(params_.size());
    for (const auto& p : params_) snapshot_.push_back(p.ToVector());
  }

  const std::string stage_;
  std::vector<Tensor> params_;
  int64_t rollback_after_;
  int64_t consecutive_bad_ = 0;
  int64_t rollback_count_ = 0;
  int64_t skipped_count_ = 0;
  bool epoch_had_bad_ = false;
  std::vector<std::vector<float>> snapshot_;
  obs::Counter* skipped_;
  obs::Counter* rollbacks_;
};

/// Per-epoch training series, one labeled set per stage.
struct StageMetrics {
  explicit StageMetrics(const std::string& stage) {
    auto& reg = obs::MetricsRegistry::Get();
    std::vector<std::pair<std::string, std::string>> labels = {
        {"stage", stage}};
    epoch_loss = reg.GetGauge("dot_train_epoch_loss", labels);
    epoch_time_s = reg.GetGauge("dot_train_epoch_time_seconds", labels);
    grad_norm = reg.GetGauge("dot_train_grad_norm", labels);
    epochs_total = reg.GetCounter("dot_train_epochs_total", labels);
    steps_total = reg.GetCounter("dot_train_steps_total", labels);
  }
  obs::Gauge* epoch_loss;
  obs::Gauge* epoch_time_s;
  obs::Gauge* grad_norm;
  obs::Counter* epochs_total;
  obs::Counter* steps_total;
};

}  // namespace

TrainReport Trainer::Run(TrainTask* task, Rng* rng) {
  TrainReport report;
  const int64_t n = task->NumExamples();
  if (n <= 0 || config_.epochs <= 0) return report;
  const int64_t b = std::min<int64_t>(config_.batch_size, n);

  std::vector<int64_t> order(static_cast<size_t>(n));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);

  StageMetrics sm(config_.stage);
  TrainingGuard guard(config_.stage, task->Parameters(),
                      config_.rollback_after_bad_steps);
  // The DOT_FAILPOINT macro caches its registry pointer per call site,
  // which would pin the first stage's name here — resolve per Run instead.
  fail::Failpoint* nan_fp =
      fail::Get("train." + config_.stage + ".nan_loss");

  std::vector<int64_t> batch(static_cast<size_t>(b));
  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::TraceSpan epoch_span("Trainer::epoch");
    Stopwatch epoch_sw;
    task->BeginEpoch(epoch);
    rng->Shuffle(&order);
    double loss_sum = 0;
    int64_t batches = 0;
    for (size_t start = 0; start + static_cast<size_t>(b) <= order.size();
         start += static_cast<size_t>(b)) {
      std::copy(order.begin() + static_cast<int64_t>(start),
                order.begin() + static_cast<int64_t>(start) + b, batch.begin());
      double loss_val = task->Forward(batch);
      if (nan_fp->Fire() == fail::Action::kNan) {
        loss_val = std::numeric_limits<double>::quiet_NaN();
      }
      if (!std::isfinite(loss_val)) {
        guard.StepBad("loss");
        continue;
      }
      task->Backward();
      double gnorm = ClipGradNorm(task->Parameters(), config_.grad_clip_norm);
      if (!std::isfinite(gnorm)) {
        guard.StepBad("gradient norm");
        continue;
      }
      task->OptimizerStep();
      guard.StepOk();
      loss_sum += loss_val;
      ++batches;
    }
    guard.EndEpoch();
    double mean_loss =
        batches > 0 ? loss_sum / static_cast<double>(batches) : 0;
    ++report.epochs_run;
    report.steps += batches;
    report.epoch_losses.push_back(mean_loss);
    sm.epoch_loss->Set(mean_loss);
    sm.epoch_time_s->Set(epoch_sw.ElapsedSeconds());
    sm.epochs_total->Increment();
    sm.steps_total->Increment(batches);
    sm.grad_norm->Set(GradNorm(task->Parameters()));
    if (config_.verbose) {
      DOT_LOG_INFO << "[" << config_.stage << "] epoch " << epoch + 1 << "/"
                   << config_.epochs << " mean loss " << mean_loss;
    }
    if (!task->EndEpoch(epoch, mean_loss)) {
      report.early_stopped = true;
      break;
    }
  }
  report.skipped_steps = guard.skipped_count();
  report.rollbacks = guard.rollback_count();
  return report;
}

}  // namespace train
}  // namespace dot
