// Denoising-diffusion machinery for PiT inference (paper Sec. 4.1):
// the forward noising process q (Eq. 2-5), the conditioned reverse process
// p_theta (Eq. 6-10), and the training objective (Eq. 11, Algorithm 2).

#ifndef DOT_CORE_DIFFUSION_H_
#define DOT_CORE_DIFFUSION_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace dot {

/// \brief Noise schedule: linear betas over N steps, as in DDPM [15] and
/// Sec. 4.1.1. The canonical 1e-4..0.02 range is calibrated for N = 1000;
/// for other N the range is rescaled by 1000/N (the standard "scaled
/// linear" rule) so the terminal alpha_bar stays near zero — otherwise the
/// reverse process would start from pure noise while the forward process
/// never reached it. Pass explicit bounds to override.
class DiffusionSchedule {
 public:
  explicit DiffusionSchedule(int64_t num_steps, double beta_start = -1,
                             double beta_end = -1);

  int64_t num_steps() const { return n_; }
  /// 1-based step indices in the paper map to 0-based [0, N) here.
  double beta(int64_t step) const { return beta_[static_cast<size_t>(step)]; }
  double alpha(int64_t step) const { return alpha_[static_cast<size_t>(step)]; }
  double alpha_bar(int64_t step) const {
    return alpha_bar_[static_cast<size_t>(step)];
  }

 private:
  int64_t n_;
  std::vector<double> beta_, alpha_, alpha_bar_;
};

/// \brief Interface the diffusion process uses to query the learned noise
/// predictor epsilon_theta(X_n, n, odt).
class NoisePredictor {
 public:
  virtual ~NoisePredictor() = default;

  /// x: [B, C, L, L] noisy PiTs; steps: B 0-based step indices; cond: [B, 5]
  /// encoded ODT-Inputs. Returns predicted noise of the same shape as x.
  virtual Tensor PredictNoise(const Tensor& x, const std::vector<int64_t>& steps,
                              const Tensor& cond) const = 0;
};

/// What the network's output head regresses. DDPM's Eq. 11 / Algorithm 2 use
/// the epsilon form; the x0 form is its exact reparameterization (DDPM
/// Sec. 3.2) and trains markedly better for small models on near-binary
/// images like PiTs (see DESIGN.md §4b).
enum class Parameterization {
  kEpsilon,  ///< network output is the added noise (paper Algorithm 2)
  kX0,       ///< network output is the clean PiT
};

/// \brief Forward q and reverse p processes around a NoisePredictor.
class Diffusion {
 public:
  explicit Diffusion(DiffusionSchedule schedule,
                     Parameterization param = Parameterization::kEpsilon)
      : schedule_(std::move(schedule)), param_(param) {}

  const DiffusionSchedule& schedule() const { return schedule_; }
  Parameterization parameterization() const { return param_; }

  /// Diffuses clean images to step `n` in closed form (Eq. 4):
  /// x_n = sqrt(alpha_bar_n) x_0 + sqrt(1 - alpha_bar_n) eps.
  /// `eps` must be standard normal of x0's shape.
  Tensor QSample(const Tensor& x0, const std::vector<int64_t>& steps,
                 const Tensor& eps) const;

  /// Ancestral sampling (Algorithm 1 / Eq. 10): starts from N(0, I) and
  /// denoises step by step under the condition. Runs under NoGrad.
  ///
  /// Noise is drawn from one decorrelated stream per batch sample, each
  /// forked from `rng` in batch order (exactly one fork per sample). A
  /// batched call is therefore bitwise identical to the corresponding
  /// sequence of single-sample calls against the same parent generator —
  /// the property the batched serving path (DotOracle::EstimateBatch,
  /// OracleService::QueryBatch) relies on.
  ///
  /// Sample-parallel: after the calling thread draws the initial noise, the
  /// batch is cut into min(B, pool threads) contiguous slices, each running
  /// its whole reverse trajectory as one chunk of a global-pool ParallelFor
  /// (so the model's per-op ParallelFor calls run inline inside a slice).
  /// The result is bitwise identical for any slicing, given a batch-position
  /// invariant predictor whose PredictNoise is safe to call concurrently.
  Tensor Sample(const NoisePredictor& model, const Tensor& cond,
                const std::vector<int64_t>& out_shape, Rng* rng) const;

  /// Strided deterministic sampling (DDIM, eta = 0) using `num_eval_steps`
  /// evenly spaced steps — the fast-inference option benchmarked in the
  /// hyper-parameter study. With num_eval_steps == N this approaches the
  /// full reverse process at a fraction of the cost. Noise streams and
  /// slicing as in Sample().
  Tensor SampleStrided(const NoisePredictor& model, const Tensor& cond,
                       const std::vector<int64_t>& out_shape,
                       int64_t num_eval_steps, Rng* rng) const;

  /// One training step's loss target setup (Algorithm 2, lines 2-5): given
  /// x0 batch, draws per-sample steps and noise, returns x_n and fills
  /// `steps`/`eps`. The caller computes ||eps - eps_theta(x_n, n, odt)||^2.
  Tensor MakeTrainingExample(const Tensor& x0, Rng* rng,
                             std::vector<int64_t>* steps, Tensor* eps) const;

 private:
  /// Converts the network output at step `t` into (clipped x0_hat, eps_hat).
  void SplitPrediction(float x_t, float model_out, double ab_t, float* x0_hat,
                       float* eps_hat) const;

  DiffusionSchedule schedule_;
  Parameterization param_;
};

}  // namespace dot

#endif  // DOT_CORE_DIFFUSION_H_
