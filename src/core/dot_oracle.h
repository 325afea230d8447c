// The DOT ODT-Oracle facade (paper Sec. 3.3): stage-1 conditioned
// diffusion PiT inference + stage-2 MViT travel-time estimation, trained
// separately (Sec. 5, last paragraph).

#ifndef DOT_CORE_DOT_ORACLE_H_
#define DOT_CORE_DOT_ORACLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/diffusion.h"
#include "core/estimator.h"
#include "core/unet.h"
#include "eval/dataset.h"
#include "geo/pit.h"
#include "train/trainer.h"
#include "util/result.h"

namespace dot {

/// \brief Full configuration of a DOT oracle.
struct DotConfig {
  int64_t grid_size = 20;        ///< L_G (paper Table 2 optimum)
  int64_t diffusion_steps = 1000;  ///< N
  /// Strided DDIM evaluation steps at inference; diffusion_steps for the
  /// paper's full ancestral process (see `ancestral_sampling`).
  int64_t sample_steps = 25;
  bool ancestral_sampling = false;  ///< Algorithm 1's step-by-step sampler

  UnetConfig unet;              ///< levels = L_D
  EstimatorConfig estimator;    ///< embed_dim = d_E, layers = L_E
  EstimatorKind estimator_kind = EstimatorKind::kMvit;

  /// Denoiser regression target. kEpsilon is the paper's Algorithm 2;
  /// kX0 is its exact reparameterization (DDPM Sec. 3.2), which trains far
  /// better at CPU scale (DESIGN.md §4b) and is therefore the default here.
  Parameterization parameterization = Parameterization::kX0;

  int64_t stage1_epochs = 4;
  int64_t stage2_epochs = 8;
  int64_t batch_size = 8;
  float lr = 1e-3f;             ///< Adam, as in Sec. 6.3
  /// Densify sparse GPS tracks when rasterizing PiTs (cells crossed between
  /// consecutive samples are filled in).
  bool pit_interpolate = true;
  /// Mask-channel decision threshold applied to sampled PiTs (see
  /// Pit::Canonicalize). Slightly negative recovers soft route cells.
  float mask_threshold = -0.3f;
  /// Fraction of the stage-2 training PiTs replaced by stage-1 *inferred*
  /// PiTs (capped by stage2_inferred_cap). The estimator serves inferred
  /// PiTs at query time; training on them closes the
  /// ground-truth-vs-inferred distribution gap (the "inferred training set"
  /// reading of Sec. 6.3) and measurably improves accuracy.
  double stage2_inferred_fraction = 1.0;
  int64_t stage2_inferred_cap = 800;
  /// Enforce the PiT validity invariant on inferred PiTs: every real PiT
  /// contains its origin and destination cells (the trajectory endpoints,
  /// Def. 2), so mark them visited with offset -1/+1 if sampling missed
  /// them.
  bool augment_endpoints = true;
  /// Early-stop stage 2 on this many inferred validation PiTs (0 = skip
  /// early stopping).
  int64_t val_samples = 64;

  /// Condition ablations (Table 7): No-t drops the departure time, No-od
  /// drops the endpoints, both off reproduces No-odt.
  bool use_time_condition = true;
  bool use_od_condition = true;

  /// L2 gradient-norm clip applied before every optimizer step (0 = off).
  float grad_clip_norm = 0.0f;
  /// Training fault tolerance: a step whose loss or gradient norm is
  /// non-finite is skipped (the optimizer never sees it); after this many
  /// *consecutive* poisoned steps the stage rolls back to its last-good
  /// weights (snapshot refreshed at every healthy epoch boundary). 0
  /// disables rollback (poisoned steps are still skipped).
  int64_t rollback_after_bad_steps = 3;

  uint64_t seed = 1;
  bool verbose = false;
};

/// \brief How a serving answer was produced — the degradation ladder level
/// (DESIGN.md §5d). Ordered best-first: quality a > quality b iff a's enum
/// value is smaller.
enum class ServedQuality : int {
  kFull = 0,            ///< full reverse-diffusion pass at configured steps
  kReducedSteps = 1,    ///< DDIM pass with fewer steps (deadline pressure)
  kCachedNeighbor = 2,  ///< PiT borrowed from a neighboring ToD bucket
  kFallback = 3,        ///< cheap fallback estimator (or prior mean); no PiT
};

/// Short name for logs/metric labels ("full", "reduced_steps", ...).
const char* ServedQualityName(ServedQuality q);

/// \brief Knobs of one continual fine-tune pass (DESIGN.md §5k): a short,
/// low-LR run over a fresh trajectory window mixed with replayed history,
/// bounded so it can run online between hot swaps.
struct FineTuneConfig {
  int64_t stage1_epochs = 1;   ///< denoiser epochs (0 = stage 2 only)
  int64_t stage2_epochs = 2;   ///< estimator epochs
  /// LR multiplier on the oracle's base lr (fine-tuning nudges, it does not
  /// retrain).
  double lr_scale = 0.2;
  /// Replayed old samples per fresh sample (guards against catastrophic
  /// forgetting of the pre-incident distribution).
  double replay_fraction = 0.5;
  /// Hard cap on the mixed set (bounds one round's wall time).
  int64_t max_samples = 768;
};

/// \brief An oracle answer: the travel time and the inferred PiT
/// (the explainability output, Sec. 6.6), tagged with the ladder level
/// that produced it.
struct DotEstimate {
  double minutes = 0;
  Pit pit{1};
  ServedQuality quality = ServedQuality::kFull;
};

/// \brief Stage-1 output of DotOracle::TryInferPits.
struct InferredPits {
  std::vector<Pit> pits;  ///< one per query, in query order
  /// Parallel to `pits`: nonzero where the sampler's raw output for that
  /// sample held a non-finite value. Such a PiT must not be served.
  std::vector<char> poisoned;
};

/// \brief Two-stage DOT model.
class DotOracle {
 public:
  /// `grid` must cover the query area at config.grid_size resolution.
  DotOracle(const DotConfig& config, const Grid& grid);

  /// Stage 1 (Algorithm 2): trains the conditioned PiT denoiser on the
  /// historical trajectories.
  Status TrainStage1(const std::vector<TripSample>& train);

  /// Stage 2 (Eq. 23): trains the PiT travel-time estimator on ground-truth
  /// training PiTs, early-stopped on *inferred* validation PiTs as in
  /// Sec. 6.3. Stage 1 must have been trained first.
  Status TrainStage2(const std::vector<TripSample>& train,
                     const std::vector<TripSample>& val);

  /// Continual fine-tune (DESIGN.md §5k): a short low-LR run of both stages
  /// over `fresh` (the recent trajectory window) mixed with a replay
  /// subsample of `old` (the original training distribution). Target
  /// normalization stays frozen so serving semantics don't shift. Requires
  /// a fully trained (or loaded) oracle. Metrics and the nan_loss failpoint
  /// use the "finetune" stage tag.
  Status FineTune(const std::vector<TripSample>& fresh,
                  const std::vector<TripSample>& old,
                  const FineTuneConfig& config);

  /// Per-query uncertainty from `draws` independent diffusion draws at
  /// `sample_steps` DDIM steps (0 = configured count): the standard
  /// deviation of the estimated minutes across draws plus a relative
  /// (heteroscedastic) floor proportional to the query's magnitude — the
  /// draw-mean minutes and the sampled route extent in grid cells, the
  /// latter because TTE error grows with trip length even when the scalar
  /// estimate regresses long trips toward the mean. Each value is observed
  /// into the `dot_oracle_uncertainty_minutes` histogram + rolling window,
  /// and is monotone with actual error on the demo world
  /// (tests/adaptation_test.cc), which is what lets the serving ladder
  /// triage low-confidence answers.
  Result<std::vector<double>> EstimateUncertainty(
      const std::vector<OdtInput>& odts, int64_t draws,
      int64_t sample_steps = 0);

  /// Full oracle query (Eq. 1): odt -> (travel time, inferred PiT).
  Result<DotEstimate> Estimate(const OdtInput& odt);

  /// Batched oracle query: one reverse-diffusion process denoises all B
  /// PiTs together and one stage-2 pass estimates their travel times. The
  /// results are bitwise identical to calling Estimate sequentially on the
  /// same oracle state (the samplers fork one noise stream per query, in
  /// query order), so batching is purely a throughput optimization.
  Result<std::vector<DotEstimate>> EstimateBatch(
      const std::vector<OdtInput>& odts);

  /// Stage-1 only: infers PiTs for a batch of queries.
  std::vector<Pit> InferPits(const std::vector<OdtInput>& odts);

  /// Failure-aware stage 1 for the serving path: honors the
  /// `dot_oracle.infer_pits` failpoint, runs the reverse pass with
  /// `sample_steps` DDIM steps (0 = the configured count; the degradation
  /// ladder passes fewer under deadline pressure), and flags non-finite
  /// sampler output per sample, so one diverged sample costs no other
  /// query its PiT and no poisoned PiT reaches stage 2.
  Result<InferredPits> TryInferPits(const std::vector<OdtInput>& odts,
                                    int64_t sample_steps = 0);

  /// 64-bit digest of everything an answer is a function of besides the
  /// sampling RNG's state: parameter bytes, target statistics, grid and
  /// architecture/sampling config. Two replicas with equal digests answer
  /// alike, so their misses may share one sampling pass (DESIGN.md §5i).
  uint64_t ModelDigest() const;

  /// Stage-2 only: estimates minutes from already-inferred PiTs. `odts`
  /// must be parallel to `pits` (the estimator's wide component reads the
  /// query features; see EstimatorConfig::use_odt_features).
  std::vector<double> EstimateFromPits(const std::vector<Pit>& pits,
                                       const std::vector<OdtInput>& odts) const;

  /// Rasterizes a trajectory on this oracle's grid (ground-truth PiT).
  Pit GroundTruthPit(const Trajectory& t) const;

  /// Encodes an ODT-Input honoring the condition ablation switches.
  std::vector<float> EncodeCondition(const OdtInput& odt) const;

  int64_t Stage1NumParams() const { return denoiser_->NumParams(); }
  int64_t Stage2NumParams() const { return estimator_->module()->NumParams(); }
  int64_t NumParams() const { return Stage1NumParams() + Stage2NumParams(); }

  /// True once both stages are trained (or loaded) and Estimate* may run.
  bool trained() const { return stage1_trained_ && stage2_trained_; }

  const DotConfig& config() const { return config_; }
  const Grid& grid() const { return grid_; }
  const UnetDenoiser& denoiser() const { return *denoiser_; }

  /// Mean stage-1 training loss of the last epoch (diagnostics).
  double last_stage1_loss() const { return last_stage1_loss_; }

  /// Reports of the last TrainStage1 / TrainStage2 / FineTune runs
  /// (per-epoch loss trajectories, skip/rollback counts).
  const train::TrainReport& stage1_report() const { return stage1_report_; }
  const train::TrainReport& stage2_report() const { return stage2_report_; }
  const train::TrainReport& finetune_report() const {
    return finetune_report_;
  }

  /// Mean travel time of the stage-2 training distribution, minutes — the
  /// serving layer's estimate of last resort when the whole ladder is
  /// exhausted.
  double prior_mean_minutes() const { return target_mean_; }

  /// Persists both stages plus target normalization. The loading oracle
  /// must be constructed with an identical architecture config.
  Status SaveFile(const std::string& path) const;
  Status LoadFile(const std::string& path);

  /// Stage-1-only checkpointing (the denoiser); lets callers iterate on
  /// stage 2 / sampling without repeating the expensive diffusion training.
  Status SaveStage1(const std::string& path) const;
  Status LoadStage1(const std::string& path);

  /// Copies `other`'s trained stage-1 denoiser weights into this oracle
  /// (identical UNet architecture required). Used by the Table-7 ablations
  /// that vary only the stage-2 estimator: the two stages are trained
  /// separately (Sec. 5), so stage 1 can be shared.
  Status AdoptStage1(const DotOracle& other);

 private:
  /// Shared stage-1 body; `poisoned` (when non-null) gets one flag per
  /// query, set where the sampler emitted a non-finite value.
  std::vector<Pit> InferPitsImpl(const std::vector<OdtInput>& odts,
                                 int64_t sample_steps,
                                 std::vector<char>* poisoned);

  /// Shared denoiser training loop (oracle_train.cc): `cosine_lr` enables
  /// the full-training cosine decay; fine-tuning runs at a constant low lr.
  train::TrainReport RunStage1Loop(const std::vector<TripSample>& samples,
                                   const std::string& stage, int64_t epochs,
                                   float lr, bool cosine_lr);
  /// Shared estimator training loop over pre-built PiTs/features/targets;
  /// `validate` (when set) runs after each epoch and returns false to stop.
  train::TrainReport RunStage2Loop(
      const std::vector<Pit>& pits,
      const std::vector<std::vector<double>>& feats,
      const std::vector<float>& norm_targets, const std::string& stage,
      int64_t epochs, float lr,
      const std::function<bool(int64_t)>& validate);

  DotConfig config_;
  Grid grid_;
  Diffusion diffusion_;
  std::unique_ptr<UnetDenoiser> denoiser_;
  std::unique_ptr<PitEstimator> estimator_;
  Rng rng_;
  bool stage1_trained_ = false;
  bool stage2_trained_ = false;
  double target_mean_ = 0, target_std_ = 1;
  double last_stage1_loss_ = 0;
  train::TrainReport stage1_report_;
  train::TrainReport stage2_report_;
  train::TrainReport finetune_report_;
};

}  // namespace dot

#endif  // DOT_CORE_DOT_ORACLE_H_
