#include "core/oracle_service.h"

#include <chrono>
#include <cmath>
#include <random>
#include <thread>
#include <unordered_set>

#include "obs/trace.h"
#include "obs/window.h"

namespace dot {

OracleService::Metrics::Metrics() {
  auto& reg = obs::MetricsRegistry::Get();
  query_latency_us = reg.GetHistogram("dot_service_query_latency_us");
  batch_latency_us = reg.GetHistogram("dot_service_batch_latency_us");
  batch_size = reg.GetHistogram("dot_service_batch_size",
                                obs::Histogram::LinearBounds(1, 1, 64));
  queries = reg.GetCounter("dot_service_queries_total");
  cache_hits = reg.GetCounter("dot_service_cache_hits_total");
  dedup_hits = reg.GetCounter("dot_service_dedup_hits_total");
  cache_misses = reg.GetCounter("dot_service_cache_misses_total");
  evictions = reg.GetCounter("dot_service_evictions_total");
  stage1_latency_us = reg.GetHistogram("dot_oracle_stage1_latency_us");
  stage1_window = reg.GetWindow("dot_oracle_stage1_latency_us");
  retries = reg.GetCounter("dot_serving_retries_total");
  degraded_reduced_steps = reg.GetCounter(
      "dot_serving_degraded_total",
      {{"level", ServedQualityName(ServedQuality::kReducedSteps)}});
  degraded_cached_neighbor = reg.GetCounter(
      "dot_serving_degraded_total",
      {{"level", ServedQualityName(ServedQuality::kCachedNeighbor)}});
  degraded_fallback = reg.GetCounter(
      "dot_serving_degraded_total",
      {{"level", ServedQualityName(ServedQuality::kFallback)}});
}

OracleService::OracleService(DotOracle* oracle, OracleServiceConfig config)
    : oracle_(oracle), config_(config) {}

int64_t OracleService::BucketOf(const OdtInput& odt) const {
  const Grid& grid = oracle_->grid();
  int64_t o = grid.CellIndex(grid.Locate(odt.origin));
  int64_t d = grid.CellIndex(grid.Locate(odt.destination));
  int64_t slot = SecondsOfDay(odt.departure_time) * config_.tod_slots / 86400;
  return (o * grid.num_cells() + d) * config_.tod_slots + slot;
}

void OracleService::Touch(
    std::unordered_map<int64_t, CacheEntry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  it->second.lru_it = lru_.begin();
}

void OracleService::InsertLocked(int64_t bucket, Pit pit) {
  auto it = cache_.find(bucket);
  if (it != cache_.end()) {  // another thread filled it first: refresh
    it->second.pit = std::move(pit);
    Touch(it);
    return;
  }
  if (config_.max_entries <= 0) return;
  while (static_cast<int64_t>(cache_.size()) >= config_.max_entries &&
         !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
    metrics_.evictions->Increment();
  }
  lru_.push_front(bucket);
  cache_.emplace(bucket, CacheEntry{std::move(pit), lru_.begin()});
}

OracleServiceStats OracleService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int64_t OracleService::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(cache_.size());
}

void OracleService::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  lru_.clear();
}

Status CheckQueryFields(const OdtInput& odt) {
  auto finite = [](const GpsPoint& p) {
    return std::isfinite(p.lng) && std::isfinite(p.lat);
  };
  if (!finite(odt.origin) || !finite(odt.destination)) {
    return Status::InvalidArgument("query: non-finite coordinates");
  }
  if (odt.departure_time < 0) {
    return Status::InvalidArgument("query: negative departure time");
  }
  return Status::OK();
}

Status OracleService::ValidateQuery(const OdtInput& odt) const {
  DOT_RETURN_NOT_OK(CheckQueryFields(odt));
  BoundingBox area = oracle_->grid().box().Inflated(0.01);
  if (!area.Contains(odt.origin)) {
    return Status::InvalidArgument("query: origin outside the service area");
  }
  if (!area.Contains(odt.destination)) {
    return Status::InvalidArgument(
        "query: destination outside the service area");
  }
  return Status::OK();
}

Result<std::vector<Pit>> OracleService::TryInferWithRetry(
    const std::vector<OdtInput>& odts, int64_t sample_steps,
    const QueryOptions& opts, const Stopwatch& sw) {
  int64_t attempts = 1 + std::max<int64_t>(0, config_.max_retries);
  Status last = Status::Internal("stage 1: no attempt made");
  for (int64_t a = 0; a < attempts; ++a) {
    if (a > 0) {
      // Exponential backoff with ±25% jitter: after a common-cause failure
      // every shard retries on its own schedule instead of re-storming the
      // backend in lockstep.
      thread_local std::mt19937_64 jitter_rng(
          std::hash<std::thread::id>{}(std::this_thread::get_id()));
      std::uniform_real_distribution<double> jitter(0.75, 1.25);
      double backoff_ms =
          static_cast<double>(config_.retry_backoff_ms << (a - 1)) *
          jitter(jitter_rng);
      if (opts.deadline_ms > 0 &&
          opts.deadline_ms - sw.ElapsedSeconds() * 1e3 <= backoff_ms) {
        break;  // the backoff alone would bust the deadline: stop retrying
      }
      metrics_.retries->Increment();
      if (backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
      }
    }
    std::unique_lock<std::mutex> olock(oracle_mu_);
    Result<std::vector<Pit>> r = oracle_->TryInferPits(odts, sample_steps);
    olock.unlock();
    if (r.ok()) return r;
    last = r.status();
    // Only Internal failures (failpoints, diverged samplers) are worth a
    // retry; anything else (untrained, bad input) is permanent.
    if (last.code() != StatusCode::kInternal) break;
  }
  return last;
}

bool OracleService::LookupNeighborLocked(int64_t bucket, Pit* pit) {
  int64_t slot = bucket % config_.tod_slots;
  int64_t od = bucket / config_.tod_slots;
  for (int64_t r = 1; r <= config_.neighbor_slot_radius; ++r) {
    for (int64_t sign : {-1, +1}) {
      int64_t s =
          ((slot + sign * r) % config_.tod_slots + config_.tod_slots) %
          config_.tod_slots;
      auto it = cache_.find(od * config_.tod_slots + s);
      if (it != cache_.end()) {
        Touch(it);
        *pit = it->second.pit;
        return true;
      }
    }
  }
  return false;
}

OracleService::MissServe OracleService::ServeMisses(
    const std::vector<OdtInput>& miss_odts,
    const std::vector<int64_t>& miss_buckets, const QueryOptions& opts,
    const Stopwatch& sw) {
  size_t m = miss_odts.size();
  MissServe out;
  out.pits.assign(m, Pit{1});
  out.minutes.assign(m, 0.0);
  out.quality.assign(m, ServedQuality::kFallback);

  // Deadline triage: predict the full pass's cost from the p95 of the
  // observed stage-1 latencies and pick the highest ladder level whose
  // predicted cost fits the remaining budget. Reduced-step cost is scaled
  // linearly in the step count (the denoiser dominates each step).
  ServedQuality target = ServedQuality::kFull;
  int64_t steps = 0;  // 0 = the oracle's configured sample_steps
  bool skip_stage1 = false;
  if (opts.deadline_ms > 0) {
    // Cost prediction from the rolling window (current load); an idle
    // window falls back to the lifetime histogram so a freshly quiet
    // server still triages from what it has seen.
    double p95 = 0;
    bool have_cost = false;
    if (metrics_.stage1_window->Count() > 0) {
      p95 = metrics_.stage1_window->Quantile(0.95);
      have_cost = true;
    } else if (metrics_.stage1_latency_us->Count() > 0) {
      p95 = metrics_.stage1_latency_us->Quantile(0.95);
      have_cost = true;
    }
    double remaining_us =
        opts.deadline_ms * 1e3 - sw.ElapsedSeconds() * 1e6;
    if (have_cost && p95 > remaining_us) {
      double frac = static_cast<double>(config_.degraded_sample_steps) /
                    static_cast<double>(
                        std::max<int64_t>(1, oracle_->config().sample_steps));
      if (p95 * frac <= remaining_us) {
        target = ServedQuality::kReducedSteps;
        steps = config_.degraded_sample_steps;
      } else {
        skip_stage1 = true;  // even a reduced pass is predicted to run late
      }
    }
  }

  if (!skip_stage1) {
    Result<std::vector<Pit>> r =
        TryInferWithRetry(miss_odts, steps, opts, sw);
    if (!r.ok() && target == ServedQuality::kFull) {
      // Stage 1 failed at full quality: one more round at reduced steps
      // before abandoning inference for this wave.
      target = ServedQuality::kReducedSteps;
      r = TryInferWithRetry(miss_odts, config_.degraded_sample_steps, opts,
                            sw);
    }
    if (r.ok()) {
      out.pits = std::move(*r);
      out.quality.assign(m, target);
      out.fresh = true;
      return out;
    }
    out.stage1_error = true;  // attempted and exhausted — a real failure
  }

  // Ladder tail, per miss: a cached PiT from a neighboring time-of-day
  // bucket, else the fallback estimate. Never fails.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < m; ++i) {
      if (LookupNeighborLocked(miss_buckets[i], &out.pits[i])) {
        out.quality[i] = ServedQuality::kCachedNeighbor;
      }
    }
  }
  for (size_t i = 0; i < m; ++i) {
    if (out.quality[i] != ServedQuality::kFallback) continue;
    out.minutes[i] = config_.fallback_estimator
                         ? config_.fallback_estimator(miss_odts[i])
                         : oracle_->prior_mean_minutes();
  }
  return out;
}

void OracleService::RecordQuality(ServedQuality q) {
  switch (q) {
    case ServedQuality::kFull:
      break;
    case ServedQuality::kReducedSteps:
      metrics_.degraded_reduced_steps->Increment();
      break;
    case ServedQuality::kCachedNeighbor:
      metrics_.degraded_cached_neighbor->Increment();
      break;
    case ServedQuality::kFallback:
      metrics_.degraded_fallback->Increment();
      break;
  }
}

Result<DotEstimate> OracleService::Query(const OdtInput& odt,
                                         const QueryOptions& opts) {
  DOT_RETURN_NOT_OK(ValidateQuery(odt));
  if (!oracle_->trained()) {
    return Status::FailedPrecondition("oracle not trained");
  }
  obs::TraceSpan span("OracleService::Query");
  Stopwatch sw;
  if (opts.stage1_failed != nullptr) *opts.stage1_failed = false;
  metrics_.queries->Increment();
  int64_t bucket = BucketOf(odt);
  bool hit = false;
  Pit pit{1};
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    auto it = cache_.find(bucket);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      Touch(it);
      pit = it->second.pit;  // copy: the entry may be evicted after unlock
      hit = true;
    } else {
      ++stats_.cache_misses;
    }
  }
  if (hit) {
    metrics_.cache_hits->Increment();
    Stopwatch stage2_sw;
    std::unique_lock<std::mutex> olock(oracle_mu_);
    double minutes = oracle_->EstimateFromPits({pit}, {odt})[0];
    olock.unlock();
    if (opts.timing != nullptr) {
      opts.timing->stage2_us = stage2_sw.ElapsedSeconds() * 1e6;
    }
    metrics_.query_latency_us->Observe(sw.ElapsedSeconds() * 1e6);
    return DotEstimate{minutes, std::move(pit)};
  }
  metrics_.cache_misses->Increment();
  Stopwatch stage1_sw;
  MissServe served = ServeMisses({odt}, {bucket}, opts, sw);
  if (opts.timing != nullptr) {
    opts.timing->stage1_us = stage1_sw.ElapsedSeconds() * 1e6;
  }
  if (opts.stage1_failed != nullptr && served.stage1_error) {
    *opts.stage1_failed = true;
  }
  DotEstimate est;
  est.quality = served.quality[0];
  if (est.quality == ServedQuality::kFallback) {
    est.minutes = served.minutes[0];
  } else {
    Stopwatch stage2_sw;
    std::unique_lock<std::mutex> olock(oracle_mu_);
    est.minutes = oracle_->EstimateFromPits({served.pits[0]}, {odt})[0];
    olock.unlock();
    if (opts.timing != nullptr) {
      opts.timing->stage2_us = stage2_sw.ElapsedSeconds() * 1e6;
    }
    est.pit = std::move(served.pits[0]);
  }
  if (served.fresh && est.quality == ServedQuality::kFull) {
    // Degraded PiTs are served but never cached: a warm entry promises
    // full quality to every later hit.
    std::lock_guard<std::mutex> lock(mu_);
    InsertLocked(bucket, est.pit);
  }
  RecordQuality(est.quality);
  metrics_.query_latency_us->Observe(sw.ElapsedSeconds() * 1e6);
  return est;
}

Result<std::vector<DotEstimate>> OracleService::QueryBatch(
    const std::vector<OdtInput>& odts, const QueryOptions& opts) {
  if (odts.empty()) return std::vector<DotEstimate>{};
  for (size_t i = 0; i < odts.size(); ++i) {
    Status s = ValidateQuery(odts[i]);
    if (!s.ok()) {
      return Status::InvalidArgument("batch query " + std::to_string(i) +
                                     ": " + s.message());
    }
  }
  if (!oracle_->trained()) {
    return Status::FailedPrecondition("oracle not trained");
  }
  obs::TraceSpan span("OracleService::QueryBatch");
  Stopwatch sw;
  if (opts.stage1_failed != nullptr) *opts.stage1_failed = false;
  size_t n = odts.size();
  metrics_.queries->Increment(static_cast<int64_t>(n));
  metrics_.batch_size->Observe(static_cast<double>(n));
  std::vector<int64_t> buckets(n);
  for (size_t i = 0; i < n; ++i) buckets[i] = BucketOf(odts[i]);

  // Partition the wave into cache hits and deduplicated misses. Duplicate
  // missing buckets within the wave ride along on the single miss-fill
  // exactly as sequential queries would reuse the fresh cache entry; they
  // are accounted as dedup_hits, not cache_hits — the cache was cold for
  // them, the wave itself was redundant.
  std::vector<Pit> pits(n, Pit{1});
  std::vector<char> resolved(n, 0);
  std::vector<size_t> miss_rep;  // wave index of each unique missing bucket
  std::unordered_map<int64_t, size_t> miss_slot;  // bucket -> miss_rep index
  int64_t wave_hits = 0, wave_dedup = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.queries += static_cast<int64_t>(n);
    ++stats_.batch_queries;
    for (size_t i = 0; i < n; ++i) {
      auto it = cache_.find(buckets[i]);
      if (it != cache_.end()) {
        ++stats_.cache_hits;
        ++wave_hits;
        Touch(it);
        pits[i] = it->second.pit;
        resolved[i] = 1;
      } else if (miss_slot.count(buckets[i])) {
        ++stats_.dedup_hits;  // free rider on this wave's miss-fill
        ++wave_dedup;
      } else {
        ++stats_.cache_misses;
        miss_slot.emplace(buckets[i], miss_rep.size());
        miss_rep.push_back(i);
      }
    }
  }
  metrics_.cache_hits->Increment(wave_hits);
  metrics_.dedup_hits->Increment(wave_dedup);
  metrics_.cache_misses->Increment(static_cast<int64_t>(miss_rep.size()));

  // Single batched miss-fill through the degradation ladder: one
  // reverse-diffusion pass (possibly at reduced steps) denoises every
  // missing bucket's PiT, and a wave whose stage 1 fails outright falls to
  // neighbor-bucket / fallback answers instead of erroring.
  std::vector<ServedQuality> quality(n, ServedQuality::kFull);
  std::vector<double> fallback_minutes(n, 0.0);
  if (!miss_rep.empty()) {
    std::vector<OdtInput> miss_odts;
    std::vector<int64_t> miss_buckets;
    miss_odts.reserve(miss_rep.size());
    miss_buckets.reserve(miss_rep.size());
    for (size_t idx : miss_rep) {
      miss_odts.push_back(odts[idx]);
      miss_buckets.push_back(buckets[idx]);
    }
    Stopwatch stage1_sw;
    MissServe served = ServeMisses(miss_odts, miss_buckets, opts, sw);
    if (opts.timing != nullptr) {
      opts.timing->stage1_us = stage1_sw.ElapsedSeconds() * 1e6;
    }
    if (opts.stage1_failed != nullptr && served.stage1_error) {
      *opts.stage1_failed = true;
    }
    if (served.fresh && served.quality[0] == ServedQuality::kFull) {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t k = 0; k < miss_rep.size(); ++k) {
        InsertLocked(miss_buckets[k], served.pits[k]);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (resolved[i]) continue;
      size_t k = miss_slot.at(buckets[i]);
      quality[i] = served.quality[k];
      if (quality[i] == ServedQuality::kFallback) {
        fallback_minutes[i] = served.minutes[k];
      } else {
        pits[i] = served.pits[k];
      }
      resolved[i] = 1;
    }
  }

  // One batched stage-2 pass over every query that has a PiT (all of them
  // unless some fell through to kFallback, which carries no PiT).
  std::vector<size_t> with_pit;
  with_pit.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (quality[i] != ServedQuality::kFallback) with_pit.push_back(i);
  }
  std::vector<double> minutes(n, 0.0);
  if (!with_pit.empty()) {
    std::vector<Pit> est_pits;
    std::vector<OdtInput> est_odts;
    est_pits.reserve(with_pit.size());
    est_odts.reserve(with_pit.size());
    for (size_t i : with_pit) {
      est_pits.push_back(pits[i]);
      est_odts.push_back(odts[i]);
    }
    Stopwatch stage2_sw;
    std::vector<double> est;
    {
      std::lock_guard<std::mutex> olock(oracle_mu_);
      est = oracle_->EstimateFromPits(est_pits, est_odts);
    }
    if (opts.timing != nullptr) {
      opts.timing->stage2_us = stage2_sw.ElapsedSeconds() * 1e6;
    }
    for (size_t k = 0; k < with_pit.size(); ++k) minutes[with_pit[k]] = est[k];
  }
  std::vector<DotEstimate> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RecordQuality(quality[i]);
    double m = quality[i] == ServedQuality::kFallback ? fallback_minutes[i]
                                                      : minutes[i];
    out.push_back(DotEstimate{m, std::move(pits[i]), quality[i]});
  }
  metrics_.batch_latency_us->Observe(sw.ElapsedSeconds() * 1e6);
  return out;
}

Result<std::vector<DotEstimate>> OracleService::QueryDegraded(
    const std::vector<OdtInput>& odts) {
  if (odts.empty()) return std::vector<DotEstimate>{};
  for (size_t i = 0; i < odts.size(); ++i) {
    Status s = ValidateQuery(odts[i]);
    if (!s.ok()) {
      return Status::InvalidArgument("batch query " + std::to_string(i) +
                                     ": " + s.message());
    }
  }
  if (!oracle_->trained()) {
    return Status::FailedPrecondition("oracle not trained");
  }
  obs::TraceSpan span("OracleService::QueryDegraded");
  Stopwatch sw;
  size_t n = odts.size();
  metrics_.queries->Increment(static_cast<int64_t>(n));
  std::vector<Pit> pits(n, Pit{1});
  std::vector<ServedQuality> quality(n, ServedQuality::kFallback);
  int64_t wave_hits = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.queries += static_cast<int64_t>(n);
    ++stats_.batch_queries;
    for (size_t i = 0; i < n; ++i) {
      int64_t bucket = BucketOf(odts[i]);
      auto it = cache_.find(bucket);
      if (it != cache_.end()) {
        ++stats_.cache_hits;
        ++wave_hits;
        Touch(it);
        pits[i] = it->second.pit;
        quality[i] = ServedQuality::kFull;
      } else if (LookupNeighborLocked(bucket, &pits[i])) {
        quality[i] = ServedQuality::kCachedNeighbor;
      }
      // No cache-miss accounting: this path never attempts the fill, so a
      // miss here is not a miss the cache could have prevented.
    }
  }
  metrics_.cache_hits->Increment(wave_hits);

  // One batched stage-2 pass over every query that found a PiT; the rest
  // get the fallback estimate. Stage 1 is never touched.
  std::vector<size_t> with_pit;
  with_pit.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (quality[i] != ServedQuality::kFallback) with_pit.push_back(i);
  }
  std::vector<double> minutes(n, 0.0);
  if (!with_pit.empty()) {
    std::vector<Pit> est_pits;
    std::vector<OdtInput> est_odts;
    est_pits.reserve(with_pit.size());
    est_odts.reserve(with_pit.size());
    for (size_t i : with_pit) {
      est_pits.push_back(pits[i]);
      est_odts.push_back(odts[i]);
    }
    std::vector<double> est;
    {
      std::lock_guard<std::mutex> olock(oracle_mu_);
      est = oracle_->EstimateFromPits(est_pits, est_odts);
    }
    for (size_t k = 0; k < with_pit.size(); ++k) minutes[with_pit[k]] = est[k];
  }
  std::vector<DotEstimate> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RecordQuality(quality[i]);
    double m = quality[i] == ServedQuality::kFallback
                   ? (config_.fallback_estimator
                          ? config_.fallback_estimator(odts[i])
                          : oracle_->prior_mean_minutes())
                   : minutes[i];
    out.push_back(DotEstimate{m, std::move(pits[i]), quality[i]});
  }
  metrics_.batch_latency_us->Observe(sw.ElapsedSeconds() * 1e6);
  return out;
}

Status OracleService::Warm(const std::vector<OdtInput>& odts) {
  // Deduplicate buckets, then batch-infer the missing ones.
  std::vector<OdtInput> missing;
  std::vector<int64_t> buckets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_set<int64_t> queued;
    for (const auto& odt : odts) {
      int64_t bucket = BucketOf(odt);
      if (cache_.count(bucket) || !queued.insert(bucket).second) continue;
      missing.push_back(odt);
      buckets.push_back(bucket);
    }
  }
  if (missing.empty()) return Status::OK();
  std::vector<Pit> pits;
  {
    std::lock_guard<std::mutex> olock(oracle_mu_);
    pits = oracle_->InferPits(missing);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < pits.size(); ++i) {
    InsertLocked(buckets[i], std::move(pits[i]));
  }
  return Status::OK();
}

}  // namespace dot
