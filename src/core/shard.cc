#include "core/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dot {

const char* ShardHealthName(ShardHealth h) {
  switch (h) {
    case ShardHealth::kHealthy: return "healthy";
    case ShardHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

OracleShard::Metrics::Metrics(const std::string& id) {
  auto& reg = obs::MetricsRegistry::Get();
  std::vector<std::pair<std::string, std::string>> l{{"shard", id}};
  waves = reg.GetCounter("dot_shard_waves_total", l);
  queries = reg.GetCounter("dot_shard_queries_total", l);
  failures = reg.GetCounter("dot_shard_failures_total", l);
  quarantines = reg.GetCounter("dot_shard_quarantines_total", l);
  probes = reg.GetCounter("dot_shard_probes_total", l);
  swaps = reg.GetCounter("dot_shard_swaps_total", l);
  cache_hits = reg.GetCounter("dot_shard_cache_hits_total", l);
  for (int q = 0; q < 4; ++q) {
    quality[q] = reg.GetCounter(
        "dot_shard_quality_total",
        {{"shard", id},
         {"level", ServedQualityName(static_cast<ServedQuality>(q))}});
  }
  health = reg.GetGauge("dot_shard_health", l);
  model_version = reg.GetGauge("dot_shard_model_version", l);
}

OracleShard::OracleShard(ShardConfig config)
    : config_(std::move(config)),
      fp_dispatch_(fail::Get("serve.shard_dispatch")),
      fp_dispatch_shard_(
          fail::Get("serve.shard_dispatch." + config_.shard_id)),
      metrics_(config_.shard_id),
      window_(obs::Histogram::LatencyBoundsUs(), config_.window_seconds,
              config_.window_bucket_seconds) {}

double OracleShard::NowMs() const {
  if (config_.now_ms) return config_.now_ms();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::shared_ptr<OracleShard::ModelRuntime> OracleShard::CurrentRuntime()
    const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return runtime_;
}

Result<std::shared_ptr<OracleShard::ModelRuntime>> OracleShard::BuildRuntime(
    const ModelFactory& factory, const ShardConfig& config, int64_t version) {
  Result<std::unique_ptr<DotOracle>> oracle = factory();
  if (!oracle.ok()) return oracle.status();
  if (*oracle == nullptr || !(*oracle)->trained()) {
    return Status::FailedPrecondition(
        "shard " + config.shard_id +
        ": model factory produced an untrained model");
  }
  auto rt = std::make_shared<ModelRuntime>();
  rt->oracle = std::shared_ptr<DotOracle>(std::move(*oracle));
  rt->service =
      std::make_unique<OracleService>(rt->oracle.get(), config.service);
  rt->version = version;
  rt->digest = rt->oracle->ModelDigest();
  return rt;
}

Result<std::unique_ptr<OracleShard>> OracleShard::Create(ModelFactory factory,
                                                         ShardConfig config) {
  if (config.shard_id.empty()) {
    return Status::InvalidArgument("shard: shard_id must be non-empty");
  }
  if (!factory) {
    return Status::InvalidArgument("shard: model factory must be set");
  }
  std::unique_ptr<OracleShard> shard(new OracleShard(std::move(config)));
  Result<std::shared_ptr<ModelRuntime>> rt =
      BuildRuntime(factory, shard->config_, 1);
  if (!rt.ok()) return rt.status();
  shard->factory_ = std::move(factory);
  shard->runtime_ = std::move(*rt);
  shard->metrics_.health->Set(0);
  shard->metrics_.model_version->Set(1);
  return shard;
}

void OracleShard::SetHealthLocked(ShardHealth h) {
  health_ = h;
  metrics_.health->Set(static_cast<double>(static_cast<int>(h)));
}

void OracleShard::OnDispatchFailure() {
  std::lock_guard<std::mutex> lock(state_mu_);
  ++consecutive_failures_;
  ++stats_.failures;
  metrics_.failures->Increment();
  if (health_ == ShardHealth::kQuarantined) {
    // Failed probe: the shard stays quarantined and the next probe waits
    // twice as long (capped) — a dead shard costs O(log) probes, not a
    // probe per wave.
    ++stats_.probes;
    metrics_.probes->Increment();
    probe_backoff_ms_ =
        std::min(probe_backoff_ms_ * 2, config_.probe_backoff_max_ms);
    next_probe_ms_ = NowMs() + probe_backoff_ms_;
  } else if (consecutive_failures_ >= kQuarantineAfterFailures) {
    SetHealthLocked(ShardHealth::kQuarantined);
    ++stats_.quarantines;
    metrics_.quarantines->Increment();
    probe_backoff_ms_ = config_.probe_backoff_initial_ms;
    next_probe_ms_ = NowMs() + probe_backoff_ms_;
    DOT_LOG_WARN << "shard " << config_.shard_id << " quarantined after "
                 << consecutive_failures_ << " consecutive failures";
  }
}

void OracleShard::OnDispatchSuccess() {
  std::lock_guard<std::mutex> lock(state_mu_);
  consecutive_failures_ = 0;
  if (health_ == ShardHealth::kQuarantined) {
    // Successful probe: full recovery.
    ++stats_.probes;
    metrics_.probes->Increment();
    SetHealthLocked(ShardHealth::kHealthy);
    probe_backoff_ms_ = 0;
    next_probe_ms_ = 0;
    DOT_LOG_INFO << "shard " << config_.shard_id
                 << " recovered (probe succeeded)";
  }
}

void OracleShard::RecordWaveMetrics(const std::vector<DotEstimate>& estimates,
                                    int64_t cache_hits) {
  int64_t served = 0;
  for (const auto& e : estimates) {
    if (!e.status.ok()) continue;  // invalid input: never served
    ++served;
    int q = static_cast<int>(e.quality);
    if (q >= 0 && q < 4) metrics_.quality[q]->Increment();
  }
  metrics_.queries->Increment(served);
  metrics_.cache_hits->Increment(cache_hits);
  std::lock_guard<std::mutex> lock(state_mu_);
  stats_.queries += served;
}

Status OracleShard::BeginWave(ServiceWave* wave, Pending* p) {
  p->lock = std::unique_lock<std::mutex>(serve_mu_);
  p->rt = CurrentRuntime();
  wave->service = p->rt->service.get();
  metrics_.waves->Increment();

  // A quarantined shard whose probe is due serves this wave as the
  // recovery probe; the probe is counted where it concludes.
  bool ladder_only = false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.waves;
    ladder_only =
        health_ == ShardHealth::kQuarantined && NowMs() < next_probe_ms_;
  }

  if (!ladder_only) {
    // Chaos hook: fires before the model dispatch. The global point first;
    // an unarmed global falls through to the per-shard point so counts
    // armed on `serve.shard_dispatch.<id>` are consumed only by this shard.
    // Its time (a kDelay sleep) is this shard's alone and lands in its
    // wave time, which exercises the p95 triage.
    Stopwatch sw;
    fail::Action injected = fp_dispatch_->Fire();
    if (injected == fail::Action::kOff) injected = fp_dispatch_shard_->Fire();
    p->gate_us = sw.ElapsedSeconds() * 1e6;
    if (injected != fail::Action::kError && injected != fail::Action::kNan &&
        injected != fail::Action::kTruncate) {
      p->dispatched = true;
      return Status::OK();
    }
    // The model call "crashed" (error) or returned garbage (nan): count a
    // shard failure, then answer the share through the ladder anyway —
    // the failure mode quarantines the shard, it never loses requests.
    OnDispatchFailure();
  }
  // A failed dispatch, or quarantined with no probe due: bounded failover
  // through the ladder, never touching the (suspect) stage-1 model.
  Result<std::vector<DotEstimate>> r =
      p->rt->service->QueryDegraded(wave->odts);
  if (!r.ok()) return r.status();
  wave->estimates = std::move(*r);
  int64_t hits = std::count_if(
      wave->estimates.begin(), wave->estimates.end(),
      [](const DotEstimate& e) {
        return e.status.ok() && e.quality == ServedQuality::kFull;
      });
  RecordWaveMetrics(wave->estimates, hits);
  return Status::OK();
}

void OracleShard::FinishWave(const ServiceWave& wave, double wave_us) {
  RecordWaveMetrics(wave.estimates, wave.cache_hits);
  // Valid answers at kFull or kReducedSteps beyond the cache hits came
  // from a sample drawn in this wave: the only evidence that stage 1
  // works.
  int64_t valid = 0;
  int64_t sampled = -wave.cache_hits;
  for (const DotEstimate& e : wave.estimates) {
    if (!e.status.ok()) continue;
    ++valid;
    if (e.quality == ServedQuality::kFull ||
        e.quality == ServedQuality::kReducedSteps) {
      ++sampled;
    }
  }
  // A share holding only invalid queries reached no model.
  if (valid > 0) window_.Observe(wave_us);
  if (wave.stage1_failed) {
    OnDispatchFailure();
    return;
  }
  // Without a sample (all hits, every miss skipped by deadline triage, or
  // only invalid queries) the wave says nothing about stage 1: the failure
  // streak, the health and a due probe stay as they were.
  if (sampled > 0) OnDispatchSuccess();
  // Ring of the most recently served ODs: a swap's canary warm should
  // cover the *current* hot set, not whatever was hot at startup. An
  // invalid query was never served, so it cannot warm a shadow model.
  std::lock_guard<std::mutex> lock(state_mu_);
  for (size_t i = 0; i < wave.odts.size(); ++i) {
    if (config_.canary_capacity <= 0) break;
    if (!wave.estimates[i].status.ok()) continue;
    const OdtInput& odt = wave.odts[i];
    if (static_cast<int64_t>(canary_.size()) < config_.canary_capacity) {
      canary_.push_back(odt);
    } else {
      canary_[canary_next_ % canary_.size()] = odt;
    }
    ++canary_next_;
  }
}

Status OracleShard::ServeWaves(std::vector<ShardWave>* waves,
                               const QueryOptions& opts) {
  size_t n = waves->size();
  std::vector<Pending> pending(n);
  for (size_t i = 0; i < n; ++i) {
    ShardWave& w = (*waves)[i];
    DOT_RETURN_NOT_OK(w.shard->BeginWave(&w.wave, &pending[i]));
  }

  // Shares that passed their gate, grouped by model digest (a SwapAll in
  // progress briefly leaves two groups). Each group is one wave body on
  // its first shard's replica.
  StageTiming total;
  std::vector<double> pass_us(n, 0);
  std::vector<char> served(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!pending[i].dispatched || served[i]) continue;
    std::vector<ServiceWave*> group;
    std::vector<size_t> members;
    for (size_t j = i; j < n; ++j) {
      if (pending[j].dispatched && !served[j] &&
          pending[j].rt->digest == pending[i].rt->digest) {
        group.push_back(&(*waves)[j].wave);
        members.push_back(j);
        served[j] = 1;
      }
    }
    StageTiming timing;
    QueryOptions group_opts = opts;
    group_opts.timing = &timing;
    Stopwatch sw;
    DOT_RETURN_NOT_OK(OracleService::QueryWaves(group, group_opts));
    for (size_t j : members) pass_us[j] = sw.ElapsedSeconds() * 1e6;
    total.stage1_us += timing.stage1_us;
    total.stage2_us += timing.stage2_us;
  }

  for (size_t i = 0; i < n; ++i) {
    if (!pending[i].dispatched) continue;
    ShardWave& w = (*waves)[i];
    w.shard->FinishWave(w.wave, pending[i].gate_us + pass_us[i]);
  }
  if (opts.timing != nullptr) *opts.timing = total;
  return Status::OK();
}

Result<std::vector<DotEstimate>> OracleShard::ServeWave(
    const std::vector<OdtInput>& odts, const QueryOptions& opts) {
  if (odts.empty()) return std::vector<DotEstimate>{};
  std::vector<ShardWave> waves(1);
  waves[0].shard = this;
  waves[0].wave.odts = odts;
  waves[0].wave.positions.resize(odts.size());
  std::iota(waves[0].wave.positions.begin(), waves[0].wave.positions.end(),
            size_t{0});
  DOT_RETURN_NOT_OK(ServeWaves(&waves, opts));
  return std::move(waves[0].wave.estimates);
}

Status OracleShard::HotSwap() {
  std::lock_guard<std::mutex> swap_lock(swap_mu_);
  int64_t next_version = model_version() + 1;
  Result<std::shared_ptr<ModelRuntime>> shadow =
      BuildRuntime(factory_, config_, next_version);
  if (!shadow.ok()) return shadow.status();

  // Canary warmup: the shadow model must answer recently-served ODs at
  // full quality with finite estimates before it may take traffic. As a
  // side effect the canary buckets land in the shadow's (otherwise cold)
  // cache.
  std::vector<OdtInput> canary;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    canary = canary_;
  }
  if (!canary.empty()) {
    Result<std::vector<DotEstimate>> warm =
        (*shadow)->service->QueryBatch(canary);
    if (!warm.ok()) {
      return Status::Internal("hot swap: canary batch failed: " +
                              warm.status().message());
    }
    // With no deadline, triage skips nothing: an answer from the ladder
    // tail means stage 1 failed its sample.
    if (std::any_of(warm->begin(), warm->end(), [](const DotEstimate& e) {
          return e.status.ok() &&
                 (e.quality == ServedQuality::kCachedNeighbor ||
                  e.quality == ServedQuality::kFallback);
        })) {
      return Status::Internal(
          "hot swap: canary stage-1 inference failed; keeping the current "
          "model");
    }
    for (const auto& e : *warm) {
      if (!e.status.ok() || e.quality != ServedQuality::kFull) {
        return Status::Internal(
            "hot swap: canary answer below full quality; keeping the "
            "current model");
      }
      if (!std::isfinite(e.minutes)) {
        return Status::Internal(
            "hot swap: canary produced a non-finite estimate; keeping the "
            "current model");
      }
    }
  }

  // Publish: one pointer store under model_mu_. In-flight waves hold the
  // old runtime's shared_ptr and finish on the old model; the old runtime
  // is destroyed when the last wave releases it.
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    runtime_ = std::move(*shadow);
  }
  window_.Reset();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    consecutive_failures_ = 0;
    probe_backoff_ms_ = 0;
    next_probe_ms_ = 0;
    ++stats_.swaps;
    SetHealthLocked(ShardHealth::kHealthy);
  }
  metrics_.swaps->Increment();
  metrics_.model_version->Set(static_cast<double>(next_version));
  DOT_LOG_INFO << "shard " << config_.shard_id << " hot-swapped to model v"
               << next_version;
  return Status::OK();
}

ShardHealth OracleShard::health() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return health_;
}

int64_t OracleShard::model_version() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return runtime_->version;
}

ShardStatus OracleShard::status() const {
  ShardStatus s;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    s = stats_;
    s.health = health_;
    s.consecutive_failures = consecutive_failures_;
    if (health_ == ShardHealth::kQuarantined) {
      s.next_probe_in_ms = std::max(0.0, next_probe_ms_ - NowMs());
    }
  }
  s.id = config_.shard_id;
  std::shared_ptr<ModelRuntime> rt = CurrentRuntime();
  s.model_version = rt->version;
  s.cache_size = rt->service->cache_size();
  s.window_p95_us = window_.Quantile(0.95);
  return s;
}

std::string OracleShard::StatusJson() const {
  ShardStatus s = status();
  auto num = [](int64_t v) { return std::to_string(v); };
  std::string out = "{\"id\": \"" + obs::JsonEscape(s.id) + "\"";
  out += ", \"health\": \"" + std::string(ShardHealthName(s.health)) + "\"";
  out += ", \"model_version\": " + num(s.model_version);
  out += ", \"consecutive_failures\": " + num(s.consecutive_failures);
  out += ", \"waves\": " + num(s.waves);
  out += ", \"queries\": " + num(s.queries);
  out += ", \"failures\": " + num(s.failures);
  out += ", \"quarantines\": " + num(s.quarantines);
  out += ", \"probes\": " + num(s.probes);
  out += ", \"swaps\": " + num(s.swaps);
  out += ", \"cache_size\": " + num(s.cache_size);
  out += ", \"window_p95_us\": " + std::to_string(s.window_p95_us);
  out += ", \"next_probe_in_ms\": " + std::to_string(s.next_probe_in_ms);
  out += "}";
  return out;
}

}  // namespace dot
