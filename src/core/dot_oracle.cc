#include "core/dot_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "util/checkpoint.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dot {

const char* ServedQualityName(ServedQuality q) {
  switch (q) {
    case ServedQuality::kFull: return "full";
    case ServedQuality::kReducedSteps: return "reduced_steps";
    case ServedQuality::kCachedNeighbor: return "cached_neighbor";
    case ServedQuality::kFallback: return "fallback";
  }
  return "unknown";
}

DotOracle::DotOracle(const DotConfig& config, const Grid& grid)
    : config_(config),
      grid_(grid),
      diffusion_(DiffusionSchedule(config.diffusion_steps),
                 config.parameterization),
      rng_(config.seed) {
  DOT_CHECK(grid.grid_size() == config.grid_size)
      << "grid resolution must match config.grid_size";
  DotConfig& cfg = config_;
  cfg.unet.max_steps = std::max(cfg.unet.max_steps, cfg.diffusion_steps);
  cfg.estimator.grid_size = cfg.grid_size;
  Rng init_rng(config.seed ^ 0xD07);
  denoiser_ = std::make_unique<UnetDenoiser>(cfg.unet, &init_rng);
  estimator_ = MakeEstimator(cfg.estimator_kind, cfg.estimator, &init_rng);
}

std::vector<float> DotOracle::EncodeCondition(const OdtInput& odt) const {
  std::vector<float> cond = EncodeOdt(odt, grid_);
  if (!config_.use_od_condition) {
    cond[0] = cond[1] = cond[2] = cond[3] = 0.0f;
  }
  if (!config_.use_time_condition) cond[4] = 0.0f;
  return cond;
}

Pit DotOracle::GroundTruthPit(const Trajectory& t) const {
  return Pit::Build(t, grid_, config_.pit_interpolate);
}

std::vector<Pit> DotOracle::InferPits(const std::vector<OdtInput>& odts) {
  return InferPitsImpl(odts, 0, nullptr);
}

Result<InferredPits> DotOracle::TryInferPits(
    const std::vector<OdtInput>& odts, int64_t sample_steps) {
  if (!stage1_trained_) {
    return Status::FailedPrecondition("stage 1 untrained");
  }
  if (DOT_FAILPOINT("dot_oracle.infer_pits") == fail::Action::kError) {
    return Status::Internal("failpoint 'dot_oracle.infer_pits' fired");
  }
  InferredPits out;
  out.pits = InferPitsImpl(odts, sample_steps, &out.poisoned);
  return out;
}

std::vector<Pit> DotOracle::InferPitsImpl(const std::vector<OdtInput>& odts,
                                          int64_t sample_steps,
                                          std::vector<char>* poisoned) {
  DOT_CHECK(stage1_trained_) << "InferPits before TrainStage1";
  // Stage-1 half of the estimation cost (Table 5: diffusion sampling
  // dominates) — kept as a separate span + histogram so the split stays
  // visible in traces and metrics.
  obs::TraceSpan span("DotOracle::InferPits");
  Stopwatch sw;
  std::vector<Pit> out;
  out.reserve(odts.size());
  if (poisoned != nullptr) poisoned->clear();
  int64_t l = config_.grid_size;
  int64_t bs = std::max<int64_t>(1, config_.batch_size);
  int64_t steps = sample_steps > 0 ? sample_steps : config_.sample_steps;
  for (size_t start = 0; start < odts.size(); start += static_cast<size_t>(bs)) {
    int64_t b = std::min<int64_t>(bs, static_cast<int64_t>(odts.size() - start));
    Tensor cond = Tensor::Empty({b, 5});
    for (int64_t i = 0; i < b; ++i) {
      auto c = EncodeCondition(odts[start + static_cast<size_t>(i)]);
      std::copy(c.begin(), c.end(), cond.data() + i * 5);
    }
    Tensor x;
    std::vector<int64_t> shape = {b, kPitChannels, l, l};
    if (config_.ancestral_sampling && sample_steps <= 0) {
      x = diffusion_.Sample(*denoiser_, cond, shape, &rng_);
    } else {
      x = diffusion_.SampleStrided(*denoiser_, cond, shape, steps, &rng_);
    }
    for (int64_t i = 0; i < b; ++i) {
      Tensor one = Tensor::Empty({kPitChannels, l, l});
      const float* raw = x.data() + i * one.numel();
      if (poisoned != nullptr) {
        // Scan the raw sampler output: Canonicalize would clamp values and
        // could mask a diverged sample.
        poisoned->push_back(std::any_of(raw, raw + one.numel(), [](float v) {
          return !std::isfinite(v);
        }));
      }
      std::copy(raw, raw + one.numel(), one.data());
      Pit pit = Pit::FromTensor(one).ValueOrDie();
      pit.Canonicalize(config_.mask_threshold);
      if (config_.augment_endpoints) {
        const OdtInput& odt = odts[start + static_cast<size_t>(i)];
        float tod = static_cast<float>(NormalizedTimeOfDay(odt.departure_time));
        Cell o = grid_.Locate(odt.origin);
        if (!pit.Visited(o.row, o.col)) {
          pit.Set(kPitMask, o.row, o.col, 1.0f);
          pit.Set(kPitTimeOfDay, o.row, o.col, tod);
          pit.Set(kPitTimeOffset, o.row, o.col, -1.0f);
        }
        Cell d = grid_.Locate(odt.destination);
        if (!pit.Visited(d.row, d.col)) {
          pit.Set(kPitMask, d.row, d.col, 1.0f);
          pit.Set(kPitTimeOfDay, d.row, d.col, tod);
          pit.Set(kPitTimeOffset, d.row, d.col, 1.0f);
        }
      }
      out.push_back(std::move(pit));
    }
  }
  static obs::Histogram* latency =
      obs::MetricsRegistry::Get().GetHistogram("dot_oracle_stage1_latency_us");
  // Same series into the rolling window: its p95 drives the degradation
  // ladder's deadline triage (current load, not process history).
  static obs::RollingHistogram* latency_window =
      obs::MetricsRegistry::Get().GetWindow("dot_oracle_stage1_latency_us");
  latency->Observe(sw.ElapsedSeconds() * 1e6);
  latency_window->Observe(sw.ElapsedSeconds() * 1e6);
  return out;
}

std::vector<double> DotOracle::EstimateFromPits(
    const std::vector<Pit>& pits, const std::vector<OdtInput>& odts) const {
  DOT_CHECK(stage2_trained_) << "EstimateFromPits before TrainStage2";
  DOT_CHECK(odts.size() == pits.size()) << "odts must parallel pits";
  NoGradGuard guard;
  obs::TraceSpan span("DotOracle::EstimateFromPits");
  Stopwatch sw;
  std::vector<double> out;
  out.reserve(pits.size());
  int64_t bs = std::max<int64_t>(1, config_.batch_size);
  for (size_t start = 0; start < pits.size(); start += static_cast<size_t>(bs)) {
    size_t end = std::min(pits.size(), start + static_cast<size_t>(bs));
    std::vector<Pit> batch(pits.begin() + static_cast<int64_t>(start),
                           pits.begin() + static_cast<int64_t>(end));
    std::vector<std::vector<double>> batch_feats;
    for (size_t i = start; i < end; ++i) {
      batch_feats.push_back(OdtFeatures(odts[i], grid_));
    }
    Tensor pred = estimator_->ForwardBatch(batch, batch_feats);
    for (int64_t i = 0; i < pred.numel(); ++i) {
      out.push_back(static_cast<double>(pred.at(i)) * target_std_ + target_mean_);
    }
  }
  static obs::Histogram* latency =
      obs::MetricsRegistry::Get().GetHistogram("dot_oracle_stage2_latency_us");
  latency->Observe(sw.ElapsedSeconds() * 1e6);
  return out;
}

namespace {

/// Order-sensitive 64-bit digest: every word is folded into the state and
/// avalanched with the splitmix64 finalizer.
class Digest {
 public:
  void Add(uint64_t v) {
    uint64_t x = h_ ^ v;
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h_ = x ^ (x >> 31);
  }
  void Add(double v) {
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    Add(u);
  }
  void Add(const std::string& s) {
    Add(static_cast<uint64_t>(s.size()));
    AddBytes(s.data(), s.size());
  }
  void AddBytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t w;
      std::memcpy(&w, p, sizeof(w));
      Add(w);
    }
    uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    Add(tail);
  }
  void AddParameters(const nn::Module& m) {
    for (const auto& [name, t] : m.NamedParameters()) {
      Add(name);
      for (int64_t d : t.shape()) Add(static_cast<uint64_t>(d));
      AddBytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0;
};

}  // namespace

uint64_t DotOracle::ModelDigest() const {
  Digest d;
  const DotConfig& c = config_;
  for (int64_t v : {c.grid_size, c.diffusion_steps, c.sample_steps,
                    c.batch_size, c.unet.in_channels, c.unet.base_channels,
                    c.unet.levels, c.unet.cond_dim, c.unet.heads,
                    c.unet.attention_max_hw, c.unet.max_steps,
                    c.estimator.grid_size, c.estimator.embed_dim,
                    c.estimator.layers, c.estimator.heads,
                    c.estimator.ffn_mult}) {
    d.Add(static_cast<uint64_t>(v));
  }
  for (bool v : {c.ancestral_sampling, c.augment_endpoints,
                 c.use_time_condition, c.use_od_condition,
                 c.unet.spatial_condition, c.estimator.use_cell_embedding,
                 c.estimator.use_latent_cast, c.estimator.use_odt_features}) {
    d.Add(static_cast<uint64_t>(v));
  }
  d.Add(static_cast<uint64_t>(c.parameterization));
  d.Add(static_cast<uint64_t>(c.estimator_kind));
  d.Add(static_cast<double>(c.mask_threshold));
  const BoundingBox& box = grid_.box();
  for (double v : {box.min_lng, box.min_lat, box.max_lng, box.max_lat,
                   target_mean_, target_std_}) {
    d.Add(v);
  }
  d.AddParameters(*denoiser_);
  d.AddParameters(*estimator_->module());
  return d.value();
}

Status DotOracle::AdoptStage1(const DotOracle& other) {
  if (!other.stage1_trained_) {
    return Status::FailedPrecondition("source oracle's stage 1 is untrained");
  }
  auto src = other.denoiser_->NamedParameters();
  auto dst = denoiser_->NamedParameters();
  if (src.size() != dst.size()) {
    return Status::InvalidArgument("denoiser architectures differ");
  }
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i].first != dst[i].first ||
        src[i].second.shape() != dst[i].second.shape()) {
      return Status::InvalidArgument("denoiser parameter mismatch at " +
                                     src[i].first);
    }
    dst[i].second.CopyDataFrom(src[i].second);
  }
  stage1_trained_ = true;
  return Status::OK();
}

namespace {
// Sealed-container magics (util/checkpoint.h). The pre-hardening formats
// ("DOT1"/"DOTS1", no CRC footer) are no longer readable; stale caches
// fail Load and are simply retrained and overwritten.
constexpr char kOracleMagic[] = "DOTCKPT";
constexpr uint64_t kCheckpointVersion = 1;
}  // namespace

Status DotOracle::SaveFile(const std::string& path) const {
  if (!stage1_trained_ || !stage2_trained_) {
    return Status::FailedPrecondition("cannot save an untrained oracle");
  }
  CheckpointWriter w(path, kOracleMagic, kCheckpointVersion);
  if (!w.Ok()) return Status::IOError("cannot open " + path);
  w.writer()->WriteF64(target_mean_);
  w.writer()->WriteF64(target_std_);
  DOT_RETURN_NOT_OK(denoiser_->Save(w.writer()));
  DOT_RETURN_NOT_OK(estimator_->module()->Save(w.writer()));
  return w.Commit();
}

Status DotOracle::LoadFile(const std::string& path) {
  if (DOT_FAILPOINT("dot_oracle.load") == fail::Action::kError) {
    return Status::IOError("failpoint 'dot_oracle.load' fired for " + path);
  }
  DOT_ASSIGN_OR_RETURN(CheckpointReader r, CheckpointReader::Open(
                                               path, kOracleMagic,
                                               kCheckpointVersion));
  double mean = r.reader().ReadF64();
  double std = r.reader().ReadF64();
  if (!r.reader().Ok() || !std::isfinite(mean) || !std::isfinite(std) ||
      std <= 0) {
    return Status::InvalidArgument("oracle checkpoint: bad target stats in " +
                                   path);
  }
  DOT_RETURN_NOT_OK(denoiser_->Load(&r.reader()));
  DOT_RETURN_NOT_OK(estimator_->module()->Load(&r.reader()));
  target_mean_ = mean;
  target_std_ = std;
  stage1_trained_ = true;
  stage2_trained_ = true;
  return Status::OK();
}

Result<DotEstimate> DotOracle::Estimate(const OdtInput& odt) {
  Result<std::vector<DotEstimate>> batch = EstimateBatch({odt});
  if (!batch.ok()) return batch.status();
  return std::move((*batch)[0]);
}

Result<std::vector<DotEstimate>> DotOracle::EstimateBatch(
    const std::vector<OdtInput>& odts) {
  if (!stage1_trained_ || !stage2_trained_) {
    return Status::FailedPrecondition("oracle not trained");
  }
  if (odts.empty()) return std::vector<DotEstimate>{};
  obs::TraceSpan span("DotOracle::EstimateBatch");
  std::vector<Pit> pits = InferPits(odts);
  std::vector<double> minutes = EstimateFromPits(pits, odts);
  std::vector<DotEstimate> out;
  out.reserve(odts.size());
  for (size_t i = 0; i < odts.size(); ++i) {
    out.push_back(DotEstimate{minutes[i], std::move(pits[i])});
  }
  return out;
}

}  // namespace dot
