// DotOracle's training half: TrainStage1/TrainStage2 as thin TrainTask
// adapters over the shared hardened loop (train/trainer.h), plus the
// continual fine-tune path (DESIGN.md §5k). The serving/inference half
// lives in dot_oracle.cc.

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "core/dot_oracle.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "train/trainer.h"
#include "util/logging.h"

namespace dot {
namespace {

/// Copies a PiT's CHW tensor into row `i` of a [B, 3, L, L] batch.
void CopyPitInto(const Pit& pit, Tensor* batch, int64_t i) {
  int64_t per = pit.tensor().numel();
  std::copy(pit.tensor().data(), pit.tensor().data() + per,
            batch->data() + i * per);
}

/// Stage 1 as a TrainTask: one batch = one Algorithm-2 step (sample noise
/// level + noise, predict, regress the configured target). `cosine_epochs`
/// > 0 enables the full-training cosine LR decay to 10%; fine-tuning runs
/// at the constant (already scaled-down) lr.
class Stage1Task final : public train::TrainTask {
 public:
  Stage1Task(UnetDenoiser* denoiser, Diffusion* diffusion, Rng* rng,
             std::vector<Pit> pits, std::vector<std::vector<float>> conds,
             Parameterization parameterization, int64_t grid_size, float lr,
             int64_t cosine_epochs)
      : denoiser_(denoiser),
        diffusion_(diffusion),
        rng_(rng),
        pits_(std::move(pits)),
        conds_(std::move(conds)),
        parameterization_(parameterization),
        l_(grid_size),
        lr_(lr),
        cosine_epochs_(cosine_epochs),
        opt_(denoiser->Parameters(), lr) {}

  int64_t NumExamples() const override {
    return static_cast<int64_t>(pits_.size());
  }
  std::vector<Tensor> Parameters() override { return denoiser_->Parameters(); }

  void BeginEpoch(int64_t epoch) override {
    if (cosine_epochs_ <= 0) return;
    double progress = cosine_epochs_ > 1
                          ? static_cast<double>(epoch) /
                                static_cast<double>(cosine_epochs_ - 1)
                          : 0.0;
    opt_.set_lr(static_cast<float>(
        lr_ * (0.55 + 0.45 * std::cos(progress * 3.14159265))));
  }

  double Forward(const std::vector<int64_t>& batch) override {
    int64_t b = static_cast<int64_t>(batch.size());
    Tensor x0 = Tensor::Empty({b, kPitChannels, l_, l_});
    Tensor cond = Tensor::Empty({b, 5});
    for (int64_t i = 0; i < b; ++i) {
      int64_t idx = batch[static_cast<size_t>(i)];
      CopyPitInto(pits_[static_cast<size_t>(idx)], &x0, i);
      std::copy(conds_[static_cast<size_t>(idx)].begin(),
                conds_[static_cast<size_t>(idx)].end(), cond.data() + i * 5);
    }
    std::vector<int64_t> steps;
    Tensor eps;
    Tensor xn = diffusion_->MakeTrainingExample(x0, rng_, &steps, &eps);
    denoiser_->ZeroGrad();
    Tensor pred = denoiser_->PredictNoise(xn, steps, cond);
    Tensor target = parameterization_ == Parameterization::kX0 ? x0 : eps;
    loss_ = MseLoss(pred, target);
    return static_cast<double>(loss_.item());
  }

  void Backward() override { loss_.Backward(); }
  void OptimizerStep() override { opt_.Step(); }

 private:
  UnetDenoiser* denoiser_;
  Diffusion* diffusion_;
  Rng* rng_;
  std::vector<Pit> pits_;
  std::vector<std::vector<float>> conds_;
  Parameterization parameterization_;
  int64_t l_;
  double lr_;
  int64_t cosine_epochs_;
  optim::Adam opt_;
  Tensor loss_;
};

/// Stage 2 as a TrainTask: MSE regression of normalized travel times from
/// (PiT, query-feature) batches. Validation/early-stop policy is injected
/// through `validate` (run from EndEpoch).
class Stage2Task final : public train::TrainTask {
 public:
  Stage2Task(PitEstimator* estimator, const std::vector<Pit>* pits,
             const std::vector<std::vector<double>>* feats,
             const std::vector<float>* targets, float lr,
             std::function<bool(int64_t)> validate)
      : estimator_(estimator),
        pits_(pits),
        feats_(feats),
        targets_(targets),
        validate_(std::move(validate)),
        opt_(estimator->module()->Parameters(), lr) {}

  int64_t NumExamples() const override {
    return static_cast<int64_t>(targets_->size());
  }
  std::vector<Tensor> Parameters() override {
    return estimator_->module()->Parameters();
  }

  double Forward(const std::vector<int64_t>& batch) override {
    int64_t b = static_cast<int64_t>(batch.size());
    std::vector<Pit> batch_pits;
    std::vector<std::vector<double>> batch_feats;
    std::vector<float> batch_targets;
    for (int64_t idx : batch) {
      batch_pits.push_back((*pits_)[static_cast<size_t>(idx)]);
      batch_feats.push_back((*feats_)[static_cast<size_t>(idx)]);
      batch_targets.push_back((*targets_)[static_cast<size_t>(idx)]);
    }
    estimator_->module()->ZeroGrad();
    Tensor pred = estimator_->ForwardBatch(batch_pits, batch_feats);
    loss_ = MseLoss(pred, Tensor::FromVector({b, 1}, batch_targets));
    return static_cast<double>(loss_.item());
  }

  void Backward() override { loss_.Backward(); }
  void OptimizerStep() override { opt_.Step(); }
  bool EndEpoch(int64_t epoch, double mean_loss) override {
    (void)mean_loss;
    return validate_ ? validate_(epoch) : true;
  }

 private:
  PitEstimator* estimator_;
  const std::vector<Pit>* pits_;
  const std::vector<std::vector<double>>* feats_;
  const std::vector<float>* targets_;
  std::function<bool(int64_t)> validate_;
  optim::Adam opt_;
  Tensor loss_;
};

}  // namespace

train::TrainReport DotOracle::RunStage1Loop(
    const std::vector<TripSample>& samples, const std::string& stage,
    int64_t epochs, float lr, bool cosine_lr) {
  // Pre-rasterize PiTs and conditions once.
  std::vector<Pit> pits;
  std::vector<std::vector<float>> conds;
  pits.reserve(samples.size());
  conds.reserve(samples.size());
  for (const auto& s : samples) {
    pits.push_back(GroundTruthPit(s.trajectory));
    conds.push_back(EncodeCondition(s.odt));
  }
  Stage1Task task(denoiser_.get(), &diffusion_, &rng_, std::move(pits),
                  std::move(conds), config_.parameterization,
                  config_.grid_size, lr, cosine_lr ? epochs : 0);
  train::TrainerConfig tc;
  tc.stage = stage;
  tc.epochs = epochs;
  tc.batch_size = config_.batch_size;
  tc.grad_clip_norm = config_.grad_clip_norm;
  tc.rollback_after_bad_steps = config_.rollback_after_bad_steps;
  tc.verbose = config_.verbose;
  return train::Trainer(tc).Run(&task, &rng_);
}

train::TrainReport DotOracle::RunStage2Loop(
    const std::vector<Pit>& pits, const std::vector<std::vector<double>>& feats,
    const std::vector<float>& norm_targets, const std::string& stage,
    int64_t epochs, float lr, const std::function<bool(int64_t)>& validate) {
  Stage2Task task(estimator_.get(), &pits, &feats, &norm_targets, lr,
                  validate);
  train::TrainerConfig tc;
  tc.stage = stage;
  tc.epochs = epochs;
  tc.batch_size = config_.batch_size;
  tc.grad_clip_norm = config_.grad_clip_norm;
  tc.rollback_after_bad_steps = config_.rollback_after_bad_steps;
  tc.verbose = config_.verbose;
  return train::Trainer(tc).Run(&task, &rng_);
}

Status DotOracle::TrainStage1(const std::vector<TripSample>& train) {
  if (train.empty()) {
    return Status::InvalidArgument("stage 1: empty training set");
  }
  stage1_report_ = RunStage1Loop(train, "stage1", config_.stage1_epochs,
                                 config_.lr, /*cosine_lr=*/true);
  last_stage1_loss_ = stage1_report_.last_epoch_loss();
  stage1_trained_ = true;
  return Status::OK();
}

Status DotOracle::TrainStage2(const std::vector<TripSample>& train,
                              const std::vector<TripSample>& val) {
  if (!stage1_trained_) {
    return Status::FailedPrecondition("stage 2 requires a trained stage 1");
  }
  if (train.empty()) {
    return Status::InvalidArgument("stage 2: empty training set");
  }

  // Target normalization from the training distribution.
  double sum = 0, sq = 0;
  for (const auto& s : train) {
    sum += s.travel_time_minutes;
    sq += s.travel_time_minutes * s.travel_time_minutes;
  }
  double n = static_cast<double>(train.size());
  target_mean_ = sum / n;
  target_std_ = std::sqrt(std::max(1e-6, sq / n - target_mean_ * target_mean_));

  std::vector<Pit> pits;
  std::vector<std::vector<double>> feats;
  std::vector<float> norm_targets;
  pits.reserve(train.size());
  feats.reserve(train.size());
  norm_targets.reserve(train.size());
  for (const auto& s : train) {
    pits.push_back(GroundTruthPit(s.trajectory));
    feats.push_back(OdtFeatures(s.odt, grid_));
    norm_targets.push_back(static_cast<float>(
        (s.travel_time_minutes - target_mean_) / target_std_));
  }

  // Replace a slice of the training PiTs with stage-1 inferred ones so the
  // estimator sees the distribution it will serve (inferred PiTs differ
  // from rasterized ground truth in sparsity and soft-threshold artifacts).
  int64_t n_inferred = std::min<int64_t>(
      config_.stage2_inferred_cap,
      static_cast<int64_t>(static_cast<double>(train.size()) *
                           config_.stage2_inferred_fraction));
  if (n_inferred > 0) {
    std::vector<int64_t> pick(train.size());
    for (size_t i = 0; i < pick.size(); ++i) pick[i] = static_cast<int64_t>(i);
    rng_.Shuffle(&pick);
    pick.resize(static_cast<size_t>(n_inferred));
    std::vector<OdtInput> odts;
    for (int64_t idx : pick) odts.push_back(train[static_cast<size_t>(idx)].odt);
    std::vector<Pit> inferred = InferPits(odts);
    for (size_t k = 0; k < pick.size(); ++k) {
      pits[static_cast<size_t>(pick[k])] = std::move(inferred[k]);
    }
  }

  // Inferred validation PiTs for early stopping (Sec. 6.3).
  std::vector<Pit> val_pits;
  std::vector<OdtInput> val_odts;
  std::vector<double> val_truth;
  if (config_.val_samples > 0 && !val.empty()) {
    int64_t nv = std::min<int64_t>(config_.val_samples,
                                   static_cast<int64_t>(val.size()));
    for (int64_t i = 0; i < nv; ++i) {
      val_odts.push_back(val[static_cast<size_t>(i)].odt);
      val_truth.push_back(val[static_cast<size_t>(i)].travel_time_minutes);
    }
    val_pits = InferPits(val_odts);
  }

  stage2_trained_ = true;  // EstimateFromPits is used for validation below

  double best_val = 1e18;
  std::vector<std::vector<float>> best_weights;
  int64_t bad_epochs = 0;
  std::function<bool(int64_t)> validate;
  if (!val_pits.empty()) {
    obs::Gauge* val_mae_gauge = obs::MetricsRegistry::Get().GetGauge(
        "dot_train_val_mae", {{"stage", "stage2"}});
    validate = [&, val_mae_gauge](int64_t epoch) {
      std::vector<double> preds = EstimateFromPits(val_pits, val_odts);
      MetricsAccumulator acc;
      for (size_t i = 0; i < preds.size(); ++i) acc.Add(preds[i], val_truth[i]);
      double mae = acc.Finalize().mae;
      val_mae_gauge->Set(mae);
      if (mae < best_val) {
        best_val = mae;
        bad_epochs = 0;
        best_weights.clear();
        for (auto& p : estimator_->module()->Parameters()) {
          best_weights.push_back(p.ToVector());
        }
      } else if (++bad_epochs >= 2) {
        if (config_.verbose) {
          DOT_LOG_INFO << "[stage2] early stop at epoch " << epoch + 1;
        }
        return false;
      }
      return true;
    };
  }

  stage2_report_ = RunStage2Loop(pits, feats, norm_targets, "stage2",
                                 config_.stage2_epochs, config_.lr, validate);

  if (!best_weights.empty()) {
    auto params = estimator_->module()->Parameters();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].CopyFrom(best_weights[i]);
    }
  }
  return Status::OK();
}

Status DotOracle::FineTune(const std::vector<TripSample>& fresh,
                           const std::vector<TripSample>& old,
                           const FineTuneConfig& config) {
  if (!stage1_trained_ || !stage2_trained_) {
    return Status::FailedPrecondition("fine-tune requires a trained oracle");
  }
  if (fresh.empty()) {
    return Status::InvalidArgument("fine-tune: empty fresh window");
  }

  // Replay mix: every fresh sample plus a shuffled subsample of the old
  // distribution, capped so one round stays cheap.
  std::vector<TripSample> mixed = fresh;
  int64_t want_replay =
      std::min<int64_t>(static_cast<int64_t>(static_cast<double>(fresh.size()) *
                                             config.replay_fraction),
                        static_cast<int64_t>(old.size()));
  if (want_replay > 0) {
    std::vector<int64_t> pick(old.size());
    for (size_t i = 0; i < pick.size(); ++i) pick[i] = static_cast<int64_t>(i);
    rng_.Shuffle(&pick);
    for (int64_t k = 0; k < want_replay; ++k) {
      mixed.push_back(old[static_cast<size_t>(pick[static_cast<size_t>(k)])]);
    }
  }
  if (static_cast<int64_t>(mixed.size()) > config.max_samples) {
    std::vector<int64_t> keep(mixed.size());
    for (size_t i = 0; i < keep.size(); ++i) keep[i] = static_cast<int64_t>(i);
    rng_.Shuffle(&keep);
    std::vector<TripSample> capped;
    capped.reserve(static_cast<size_t>(config.max_samples));
    for (int64_t k = 0; k < config.max_samples; ++k) {
      capped.push_back(std::move(mixed[static_cast<size_t>(keep[static_cast<size_t>(k)])]));
    }
    mixed = std::move(capped);
  }

  float lr = static_cast<float>(config_.lr * config.lr_scale);
  train::TrainReport combined;
  if (config.stage1_epochs > 0) {
    combined.Accumulate(RunStage1Loop(mixed, "finetune", config.stage1_epochs,
                                      lr, /*cosine_lr=*/false));
  }
  if (config.stage2_epochs > 0) {
    // Target normalization stays frozen: the fine-tuned model must keep the
    // serving semantics (and checkpoints) of the model it replaces.
    std::vector<Pit> pits;
    std::vector<std::vector<double>> feats;
    std::vector<float> norm_targets;
    pits.reserve(mixed.size());
    feats.reserve(mixed.size());
    norm_targets.reserve(mixed.size());
    for (const auto& s : mixed) {
      pits.push_back(GroundTruthPit(s.trajectory));
      feats.push_back(OdtFeatures(s.odt, grid_));
      norm_targets.push_back(static_cast<float>(
          (s.travel_time_minutes - target_mean_) / target_std_));
    }
    combined.Accumulate(RunStage2Loop(pits, feats, norm_targets, "finetune",
                                      config.stage2_epochs, lr, nullptr));
  }
  finetune_report_ = combined;
  return Status::OK();
}

}  // namespace dot
