#include "core/oracle_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <thread>

#include "obs/trace.h"
#include "obs/window.h"
#include "util/logging.h"

namespace dot {

OracleService::Metrics::Metrics() {
  auto& reg = obs::MetricsRegistry::Get();
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
  int64_t slot = SecondsOfDay(odt.departure_time) * kTodSlots / 86400;
  return (o * grid.num_cells() + d) * kTodSlots + slot;
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

void OracleService::InferWithRetry(const std::vector<OdtInput>& odts,
                                   int64_t sample_steps, ServedQuality level,
                                   const QueryOptions& opts,
                                   const Stopwatch& sw,
                                   std::vector<size_t>* todo, MissServe* out) {
  int64_t attempts = 1 + std::max<int64_t>(0, config_.max_retries);
  for (int64_t a = 0; a < attempts && !todo->empty(); ++a) {
    if (a > 0) {
      double backoff_ms =
          static_cast<double>(config_.retry_backoff_ms << (a - 1));
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
    std::vector<OdtInput> batch;
    batch.reserve(todo->size());
    for (size_t i : *todo) batch.push_back(odts[i]);
    std::unique_lock<std::mutex> olock(oracle_mu_);
    Result<InferredPits> r = oracle_->TryInferPits(batch, sample_steps);
    olock.unlock();
    if (!r.ok()) {
      // Only Internal failures (failpoints, diverged samplers) are worth a
      // retry; anything else (untrained, bad input) is permanent.
      if (r.status().code() != StatusCode::kInternal) break;
      continue;
    }
    // Serve the finite samples; only the poisoned ones try again.
    std::vector<size_t> left;
    for (size_t j = 0; j < todo->size(); ++j) {
      size_t i = (*todo)[j];
      if (r->poisoned[j]) {
        left.push_back(i);
        continue;
      }
      out->pits[i] = std::move(r->pits[j]);
      out->quality[i] = level;
    }
    *todo = std::move(left);
  }
}

bool OracleService::LookupNeighborLocked(int64_t bucket, Pit* pit) {
  int64_t slot = bucket % kTodSlots;
  int64_t od = bucket / kTodSlots;
  for (int64_t step : {-1, +1}) {
    int64_t s = (slot + step + kTodSlots) % kTodSlots;
    auto it = cache_.find(od * kTodSlots + s);
    if (it != cache_.end()) {
      Touch(it);
      *pit = it->second.pit;
      return true;
    }
  }
  return false;
}

OracleService::MissServe OracleService::ServeMisses(
    const std::vector<OdtInput>& miss_odts, const QueryOptions& opts,
    const Stopwatch& sw, bool sample) {
  size_t m = miss_odts.size();
  MissServe out;
  out.pits.assign(m, Pit{1});
  out.quality.assign(m, ServedQuality::kFallback);
  out.failed.assign(m, 0);

  // The kReducedSteps level samples a third of the configured steps.
  int64_t full_steps = std::max<int64_t>(1, oracle_->config().sample_steps);
  int64_t reduced_steps = std::max<int64_t>(1, full_steps / 3);

  // Deadline triage: predict the full pass's cost from the p95 of the
  // observed stage-1 latencies and pick the highest ladder level whose
  // predicted cost fits the remaining budget. Reduced-step cost is scaled
  // linearly in the step count (the denoiser dominates each step).
  ServedQuality target = ServedQuality::kFull;
  int64_t steps = 0;  // 0 = the oracle's configured sample_steps
  bool skip_stage1 = !sample;
  if (sample && opts.deadline_ms > 0) {
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
      double frac = static_cast<double>(reduced_steps) /
                    static_cast<double>(full_steps);
      if (p95 * frac <= remaining_us) {
        target = ServedQuality::kReducedSteps;
        steps = reduced_steps;
      } else {
        skip_stage1 = true;  // even a reduced pass is predicted to run late
      }
    }
  }

  if (skip_stage1) return out;
  std::vector<size_t> todo(m);
  std::iota(todo.begin(), todo.end(), size_t{0});
  InferWithRetry(miss_odts, steps, target, opts, sw, &todo, &out);
  if (!todo.empty() && target == ServedQuality::kFull) {
    // Stage 1 failed these misses at full quality: one more round at
    // reduced steps before abandoning inference for them.
    InferWithRetry(miss_odts, reduced_steps, ServedQuality::kReducedSteps,
                   opts, sw, &todo, &out);
  }
  for (size_t i : todo) out.failed[i] = 1;  // attempted and exhausted
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
  DOT_ASSIGN_OR_RETURN(auto out, QueryBatch({odt}, opts));
  if (!out[0].status.ok()) return out[0].status;
  return std::move(out[0]);
}

Result<std::vector<DotEstimate>> OracleService::QueryBatch(
    const std::vector<OdtInput>& odts, const QueryOptions& opts) {
  return ServeWave(odts, opts, /*sample_misses=*/true);
}

Result<std::vector<DotEstimate>> OracleService::QueryDegraded(
    const std::vector<OdtInput>& odts) {
  return ServeWave(odts, {}, /*sample_misses=*/false);
}

Result<std::vector<DotEstimate>> OracleService::ServeWave(
    const std::vector<OdtInput>& odts, const QueryOptions& opts,
    bool sample_misses) {
  if (odts.empty()) return std::vector<DotEstimate>{};
  ServiceWave wave;
  wave.service = this;
  wave.odts = odts;
  wave.positions.resize(odts.size());
  std::iota(wave.positions.begin(), wave.positions.end(), size_t{0});
  DOT_RETURN_NOT_OK(RunWaves({&wave}, opts, sample_misses));
  return std::move(wave.estimates);
}

Status OracleService::QueryWaves(const std::vector<ServiceWave*>& waves,
                                 const QueryOptions& opts) {
  return RunWaves(waves, opts, /*sample_misses=*/true);
}

Status OracleService::RunWaves(const std::vector<ServiceWave*>& waves,
                               const QueryOptions& opts, bool sample_misses) {
  for (ServiceWave* w : waves) {
    DOT_CHECK(w->positions.size() == w->odts.size())
        << "positions must parallel odts";
    if (!w->service->oracle_->trained()) {
      return Status::FailedPrecondition("oracle not trained");
    }
  }

  // The group's valid queries in wave order: member m is query
  // order[m].second of slice order[m].first, and member[w] lists slice
  // w's members. An invalid query gets its own status and nothing else.
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t w = 0; w < waves.size(); ++w) {
    waves[w]->estimates.assign(waves[w]->odts.size(), DotEstimate{});
    waves[w]->cache_hits = 0;
    waves[w]->stage1_failed = false;
    for (size_t k = 0; k < waves[w]->odts.size(); ++k) {
      Status s = waves[w]->service->ValidateQuery(waves[w]->odts[k]);
      if (s.ok()) {
        order.emplace_back(w, k);
      } else {
        waves[w]->estimates[k].status = std::move(s);
      }
    }
  }
  if (order.empty()) return Status::OK();
  OracleService* lead = waves[0]->service;
  obs::TraceSpan span(sample_misses ? "OracleService::QueryBatch"
                                    : "OracleService::QueryDegraded");
  Stopwatch sw;

  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    return waves[a.first]->positions[a.second] <
           waves[b.first]->positions[b.second];
  });
  size_t n = order.size();
  std::vector<std::vector<size_t>> member(waves.size());
  std::vector<const OdtInput*> odt(n);
  std::vector<int64_t> buckets(n);
  for (size_t m = 0; m < n; ++m) {
    auto [w, k] = order[m];
    member[w].push_back(m);
    odt[m] = &waves[w]->odts[k];
    buckets[m] = waves[w]->service->BucketOf(*odt[m]);
  }

  // Hits, each slice against its own cache.
  std::vector<Pit> pits(n, Pit{1});
  std::vector<char> hit(n, 0);
  for (size_t w = 0; w < waves.size(); ++w) {
    if (member[w].empty()) continue;
    OracleService* svc = waves[w]->service;
    int64_t len = static_cast<int64_t>(member[w].size());
    svc->metrics_.queries->Increment(len);
    svc->metrics_.batch_size->Observe(static_cast<double>(len));
    int64_t hits = 0;
    {
      std::lock_guard<std::mutex> lock(svc->mu_);
      svc->stats_.queries += len;
      ++svc->stats_.batch_queries;
      for (size_t m : member[w]) {
        auto it = svc->cache_.find(buckets[m]);
        if (it == svc->cache_.end()) continue;
        svc->Touch(it);
        pits[m] = it->second.pit;
        hit[m] = 1;
        ++hits;
      }
      svc->stats_.cache_hits += hits;
    }
    svc->metrics_.cache_hits->Increment(hits);
    waves[w]->cache_hits = hits;
  }

  // Deduplicate the misses by bucket across the group, in wave order. A
  // bucket's first query conditions its sample; later ones ride along and
  // count as dedup hits for their own service, exactly as sequential
  // queries would reuse the fresh cache entry. A ladder-only wave counts
  // neither: it never tries the fill, so its misses are not misses the
  // cache could have prevented.
  std::vector<size_t> slot(n, 0);
  std::vector<OdtInput> miss_odts;
  std::map<int64_t, size_t> slot_of;  // bucket -> miss slot
  std::vector<int64_t> misses(waves.size(), 0), dedup(waves.size(), 0);
  for (size_t m = 0; m < n; ++m) {
    if (hit[m]) continue;
    size_t w = order[m].first;
    auto [it, first] = slot_of.try_emplace(buckets[m], miss_odts.size());
    if (first) miss_odts.push_back(*odt[m]);
    if (sample_misses) ++(first ? misses[w] : dedup[w]);
    slot[m] = it->second;
  }

  // One batched miss-fill through the degradation ladder: one reverse-
  // diffusion pass (possibly at reduced steps) denoises every missing
  // bucket's PiT, and the samples it fails (or, in a ladder-only wave, all
  // of them) fall to their slice's neighbor-bucket / fallback answers
  // instead of failing the wave.
  MissServe served;
  if (!miss_odts.empty()) {
    Stopwatch stage1_sw;
    served = lead->ServeMisses(miss_odts, opts, sw, sample_misses);
    if (opts.timing != nullptr) {
      opts.timing->stage1_us = stage1_sw.ElapsedSeconds() * 1e6;
    }
  }
  std::vector<ServedQuality> quality(n, ServedQuality::kFull);
  std::vector<char> cached(miss_odts.size());
  for (size_t w = 0; w < waves.size(); ++w) {
    OracleService* svc = waves[w]->service;
    svc->metrics_.dedup_hits->Increment(dedup[w]);
    svc->metrics_.cache_misses->Increment(misses[w]);
    std::fill(cached.begin(), cached.end(), 0);
    std::lock_guard<std::mutex> lock(svc->mu_);
    svc->stats_.dedup_hits += dedup[w];
    svc->stats_.cache_misses += misses[w];
    for (size_t m : member[w]) {
      if (hit[m]) continue;
      size_t s = slot[m];
      quality[m] = served.quality[s];
      if (served.failed[s]) waves[w]->stage1_failed = true;
      if (quality[m] == ServedQuality::kFallback) continue;
      pits[m] = served.pits[s];
      // Degraded PiTs are served but never cached: a warm entry promises
      // full quality to every later hit.
      if (quality[m] == ServedQuality::kFull && !cached[s]) {
        svc->InsertLocked(buckets[m], pits[m]);
        cached[s] = 1;
      }
    }
    // Ladder tail for the samples stage 1 skipped or failed: a cached PiT
    // from a neighboring time-of-day bucket, else the prior mean.
    for (size_t m : member[w]) {
      if (quality[m] == ServedQuality::kFallback &&
          svc->LookupNeighborLocked(buckets[m], &pits[m])) {
        quality[m] = ServedQuality::kCachedNeighbor;
      }
    }
  }

  // One batched stage-2 pass over every query that has a PiT (all of them
  // unless some fell through to kFallback, which carries no PiT).
  std::vector<size_t> with_pit;
  std::vector<Pit> est_pits;
  std::vector<OdtInput> est_odts;
  with_pit.reserve(n);
  est_pits.reserve(n);
  est_odts.reserve(n);
  for (size_t m = 0; m < n; ++m) {
    if (quality[m] == ServedQuality::kFallback) continue;
    with_pit.push_back(m);
    est_pits.push_back(pits[m]);
    est_odts.push_back(*odt[m]);
  }
  std::vector<double> minutes(n, 0.0);
  if (!with_pit.empty()) {
    Stopwatch stage2_sw;
    std::vector<double> est;
    {
      std::lock_guard<std::mutex> olock(lead->oracle_mu_);
      est = lead->oracle_->EstimateFromPits(est_pits, est_odts);
    }
    if (opts.timing != nullptr) {
      opts.timing->stage2_us = stage2_sw.ElapsedSeconds() * 1e6;
    }
    for (size_t j = 0; j < with_pit.size(); ++j) minutes[with_pit[j]] = est[j];
  }
  for (size_t w = 0; w < waves.size(); ++w) {
    if (member[w].empty()) continue;
    OracleService* svc = waves[w]->service;
    for (size_t m : member[w]) {
      svc->RecordQuality(quality[m]);
      double est = quality[m] == ServedQuality::kFallback
                       ? svc->oracle_->prior_mean_minutes()
                       : minutes[m];
      waves[w]->estimates[order[m].second] =
          DotEstimate{est, std::move(pits[m]), quality[m]};
    }
    svc->metrics_.batch_latency_us->Observe(sw.ElapsedSeconds() * 1e6);
  }
  return Status::OK();
}

}  // namespace dot
