#include "core/diffusion.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace dot {

namespace {

/// Failpoint hook shared by both samplers: `diffusion.sample = nan`
/// overwrites the denoised batch with NaNs (a numerically-diverged reverse
/// pass), and `nan(k)` only batch position k - 1 (one diverged sample; no
/// effect on a batch of fewer than k); `delay` injects latency inside
/// Fire() itself.
void MaybeInjectSampleFault(Tensor* x) {
  static fail::Failpoint* fp = fail::Get("diffusion.sample");
  if (fp->Fire() != fail::Action::kNan) return;
  int64_t b = x->size(0);
  int64_t per = x->numel() / b;
  int64_t k = static_cast<int64_t>(fp->arg());
  int64_t begin = k >= 1 ? k - 1 : 0;
  int64_t end = k >= 1 ? std::min(k, b) : b;
  float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t i = begin * per; i < end * per; ++i) x->at(i) = nan;
}

}  // namespace

DiffusionSchedule::DiffusionSchedule(int64_t num_steps, double beta_start,
                                     double beta_end)
    : n_(num_steps) {
  DOT_CHECK(num_steps >= 1) << "diffusion needs at least one step";
  double rescale = 1000.0 / static_cast<double>(num_steps);
  if (beta_start < 0) beta_start = std::min(0.5, 1e-4 * rescale);
  if (beta_end < 0) beta_end = std::min(0.999, 0.02 * rescale);
  beta_.resize(static_cast<size_t>(num_steps));
  alpha_.resize(static_cast<size_t>(num_steps));
  alpha_bar_.resize(static_cast<size_t>(num_steps));
  double bar = 1.0;
  for (int64_t i = 0; i < num_steps; ++i) {
    double frac = num_steps == 1
                      ? 0.0
                      : static_cast<double>(i) / static_cast<double>(num_steps - 1);
    beta_[static_cast<size_t>(i)] = beta_start + frac * (beta_end - beta_start);
    alpha_[static_cast<size_t>(i)] = 1.0 - beta_[static_cast<size_t>(i)];
    bar *= alpha_[static_cast<size_t>(i)];
    alpha_bar_[static_cast<size_t>(i)] = bar;
  }
}

Tensor Diffusion::QSample(const Tensor& x0, const std::vector<int64_t>& steps,
                          const Tensor& eps) const {
  DOT_CHECK(x0.dim() == 4) << "QSample expects [B, C, L, L]";
  DOT_CHECK(SameShape(x0, eps)) << "noise shape mismatch";
  int64_t b = x0.size(0);
  DOT_CHECK(static_cast<int64_t>(steps.size()) == b) << "steps size mismatch";
  Tensor out = Tensor::Empty(x0.shape());
  int64_t per = x0.numel() / b;
  for (int64_t i = 0; i < b; ++i) {
    double ab = schedule_.alpha_bar(steps[static_cast<size_t>(i)]);
    float sa = static_cast<float>(std::sqrt(ab));
    float sn = static_cast<float>(std::sqrt(1.0 - ab));
    const float* x0p = x0.data() + i * per;
    const float* ep = eps.data() + i * per;
    float* op = out.data() + i * per;
    for (int64_t j = 0; j < per; ++j) op[j] = sa * x0p[j] + sn * ep[j];
  }
  return out;
}

Tensor Diffusion::MakeTrainingExample(const Tensor& x0, Rng* rng,
                                      std::vector<int64_t>* steps,
                                      Tensor* eps) const {
  int64_t b = x0.size(0);
  steps->resize(static_cast<size_t>(b));
  for (auto& s : *steps) s = rng->UniformInt(0, schedule_.num_steps() - 1);
  *eps = Tensor::Randn(x0.shape(), rng);
  return QSample(x0, *steps, *eps);
}

void Diffusion::SplitPrediction(float x_t, float model_out, double ab_t,
                                float* x0_hat, float* eps_hat) const {
  float sab = static_cast<float>(std::sqrt(ab_t));
  float snt = static_cast<float>(std::sqrt(1.0 - ab_t));
  if (param_ == Parameterization::kX0) {
    *x0_hat = std::clamp(model_out, -1.0f, 1.0f);
  } else {
    *x0_hat = std::clamp((x_t - snt * model_out) / std::max(1e-8f, sab), -1.0f,
                         1.0f);
  }
  // Noise direction consistent with the (clipped) x0 estimate.
  *eps_hat = snt > 1e-8f ? (x_t - sab * *x0_hat) / snt : model_out;
}

namespace {

/// Span args for one reverse step; built only while tracing (the string
/// construction would otherwise run once per step in the sampling loop).
std::string StepArgs(int64_t step) {
  return "\"step\": " + std::to_string(step);
}

/// Forks one noise stream per batch sample, in batch order.
std::vector<Rng> ForkSampleStreams(Rng* rng, int64_t b) {
  std::vector<Rng> streams;
  streams.reserve(static_cast<size_t>(b));
  for (int64_t i = 0; i < b; ++i) streams.push_back(rng->Fork());
  return streams;
}

/// Draws x_N from N(0, I), sample i from stream i.
Tensor InitialNoise(const std::vector<int64_t>& out_shape,
                    std::vector<Rng>* streams) {
  Tensor x = Tensor::Empty(out_shape);
  int64_t b = out_shape[0];
  int64_t per = x.numel() / b;
  for (int64_t i = 0; i < b; ++i) {
    Rng& s = (*streams)[static_cast<size_t>(i)];
    float* p = x.data() + i * per;
    for (int64_t j = 0; j < per; ++j) p[j] = static_cast<float>(s.Normal());
  }
  return x;
}

/// One batch slice's whole reverse trajectory: denoises `x` in place under
/// `cond`, drawing sample s's noise from streams[s].
using Trajectory =
    std::function<void(Tensor* x, const Tensor& cond, Rng* streams)>;

/// The common core of both samplers. Forks the per-sample streams and draws
/// x_N for the whole batch on the calling thread, exactly as one batched
/// pass does, then runs `trajectory` on min(B, pool threads) contiguous
/// batch slices in parallel, each on zero-copy axis-0 views of x and cond.
/// A sample's trajectory depends only on its own initial noise, stream and
/// condition (the predictor is batch-position invariant), so every slicing
/// gives the bitwise result of the unsliced pass. The failpoint fires once,
/// after the join.
Tensor SampleInSlices(const Tensor& cond, const std::vector<int64_t>& out_shape,
                      Rng* rng, const Trajectory& trajectory) {
  int64_t b = out_shape[0];
  std::vector<Rng> streams = ForkSampleStreams(rng, b);
  Tensor x = InitialNoise(out_shape, &streams);
  ParallelFor(
      ThreadPool::Global(), b,
      [&](int64_t begin, int64_t end) {
        // Grad mode is thread-local: a slice on a pool thread opens its own.
        NoGradGuard guard;
        Tensor xs = Slice(x, 0, begin, end - begin);
        trajectory(&xs, Slice(cond, 0, begin, end - begin),
                   streams.data() + begin);
      },
      /*min_chunk=*/1);
  MaybeInjectSampleFault(&x);
  return x;
}

}  // namespace

Tensor Diffusion::Sample(const NoisePredictor& model, const Tensor& cond,
                         const std::vector<int64_t>& out_shape, Rng* rng) const {
  obs::TraceSpan sample_span("Diffusion::Sample");
  // One decorrelated noise stream per sample, forked in batch order. A batch
  // of B consumes exactly B forks from `rng`, so sampling is batch-size
  // invariant: Sample(B=4) is bitwise identical to four Sample(B=1) calls
  // against the same parent generator (the serving-path equivalence the
  // batched oracle relies on, and what makes slicing the batch safe).
  auto trajectory = [&](Tensor* xs, const Tensor& cs, Rng* streams) {
    int64_t b = xs->size(0);
    int64_t per = xs->numel() / b;
    std::vector<int64_t> steps(static_cast<size_t>(b));
    // Steady-state allocation contract: x is updated in place, `pred` and
    // every UNet intermediate die each iteration and recycle through the
    // storage pool, and `steps` is reused. After the first iteration warms
    // the free lists, a reverse step performs zero fresh heap allocations
    // (asserted by the allocation-regression test via the pool counters).
    for (int64_t n = schedule_.num_steps() - 1; n >= 0; --n) {
      obs::TraceSpan step_span(
          "reverse_step", obs::TracingEnabled() ? StepArgs(n) : std::string());
      std::fill(steps.begin(), steps.end(), n);
      Tensor pred = model.PredictNoise(*xs, steps, cs);
      // Eq. 10 via the x0 parameterization with the standard clamp: recover
      // x0_hat = (x_n - sqrt(1-ab_n) eps_theta) / sqrt(ab_n), clip it to the
      // data range [-1, 1] (PiT channels are bounded), then take the DDPM
      // posterior mean. Without the clamp, early steps divide by a tiny
      // sqrt(ab_n) and amplify prediction error catastrophically.
      double alpha = schedule_.alpha(n);
      double beta = schedule_.beta(n);
      double ab = schedule_.alpha_bar(n);
      double ab_prev = n > 0 ? schedule_.alpha_bar(n - 1) : 1.0;
      // Posterior q(x_{n-1} | x_n, x0) coefficients (DDPM Eq. 7).
      float c0 = static_cast<float>(std::sqrt(ab_prev) * beta / (1.0 - ab));
      float ct =
          static_cast<float>(std::sqrt(alpha) * (1.0 - ab_prev) / (1.0 - ab));
      float sigma = n > 0 ? static_cast<float>(std::sqrt(beta)) : 0.0f;
      const float* pp = pred.data();
      for (int64_t s = 0; s < b; ++s) {
        Rng& stream = streams[s];
        float* xp = xs->data() + s * per;
        const float* ps = pp + s * per;
        for (int64_t i = 0; i < per; ++i) {
          float x0_hat, eps_hat;
          SplitPrediction(xp[i], ps[i], ab, &x0_hat, &eps_hat);
          float mean = c0 * x0_hat + ct * xp[i];
          float z = sigma > 0 ? static_cast<float>(stream.Normal()) : 0.0f;
          xp[i] = mean + sigma * z;
        }
      }
    }
  };
  return SampleInSlices(cond, out_shape, rng, trajectory);
}

Tensor Diffusion::SampleStrided(const NoisePredictor& model, const Tensor& cond,
                                const std::vector<int64_t>& out_shape,
                                int64_t num_eval_steps, Rng* rng) const {
  obs::TraceSpan sample_span("Diffusion::SampleStrided");
  int64_t n_total = schedule_.num_steps();
  num_eval_steps = std::min(num_eval_steps, n_total);
  DOT_CHECK(num_eval_steps >= 1) << "need at least one eval step";
  // Evenly spaced subsequence of steps, descending, always including 0.
  std::vector<int64_t> timeline;
  for (int64_t i = 0; i < num_eval_steps; ++i) {
    int64_t t = (n_total - 1) * (num_eval_steps - 1 - i) /
                std::max<int64_t>(1, num_eval_steps - 1);
    if (timeline.empty() || timeline.back() != t) timeline.push_back(t);
  }
  if (num_eval_steps == 1) timeline = {n_total - 1};

  // Per-sample streams as in Sample(): DDIM only needs the initial noise,
  // but drawing it per sample keeps the sampler batch-size invariant.
  auto trajectory = [&](Tensor* xs, const Tensor& cs, Rng*) {
    std::vector<int64_t> steps(static_cast<size_t>(xs->size(0)));
    for (size_t k = 0; k < timeline.size(); ++k) {
      int64_t t = timeline[k];
      int64_t t_prev = (k + 1 < timeline.size()) ? timeline[k + 1] : -1;
      obs::TraceSpan step_span(
          "reverse_step", obs::TracingEnabled() ? StepArgs(t) : std::string());
      std::fill(steps.begin(), steps.end(), t);
      Tensor pred = model.PredictNoise(*xs, steps, cs);
      double ab_t = schedule_.alpha_bar(t);
      double ab_prev = t_prev >= 0 ? schedule_.alpha_bar(t_prev) : 1.0;
      // DDIM (eta = 0): x0_hat = (x - sqrt(1-ab_t) eps) / sqrt(ab_t);
      // x_prev = sqrt(ab_prev) x0_hat + sqrt(1 - ab_prev) eps.
      float sab_prev = static_cast<float>(std::sqrt(ab_prev));
      float sn_prev =
          static_cast<float>(std::sqrt(std::max(0.0, 1.0 - ab_prev)));
      float* xp = xs->data();
      const float* pp = pred.data();
      for (int64_t i = 0; i < xs->numel(); ++i) {
        // Clip-denoised DDIM step: recover (x0_hat, eps_hat) under the
        // active parameterization and move along the deterministic
        // trajectory.
        float x0_hat, eps_hat;
        SplitPrediction(xp[i], pp[i], ab_t, &x0_hat, &eps_hat);
        xp[i] = sab_prev * x0_hat + sn_prev * eps_hat;
      }
    }
  };
  return SampleInSlices(cond, out_shape, rng, trajectory);
}

}  // namespace dot
