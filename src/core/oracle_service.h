// A serving layer over DotOracle for map-based services: queries are
// bucketed by (origin cell, destination cell, time-of-day slot) and the
// inferred PiT of a bucket is cached with LRU eviction, so repeated
// queries for the same OD neighborhood skip the diffusion sampling
// entirely (the expensive part of Table 5's estimation cost).
//
// Every answer comes from one wave body: a request wave is partitioned
// into cache hits and misses, the misses are deduplicated by bucket and
// denoised in a single batched reverse-diffusion pass, and all travel
// times come from one batched stage-2 pass. Results are bitwise identical
// to issuing the same queries sequentially (the diffusion samplers fork
// one noise stream per query, in query order). QueryWaves runs the body
// for several services holding one model (the shards of a router,
// DESIGN.md §5i): each keeps its own cache, and the group shares the two
// passes. QueryBatch is its one-service case, Query its one-query case,
// and QueryDegraded the same body with stage 1 switched off.
//
// The service is thread-safe: the cache and statistics are guarded by one
// mutex and calls into the underlying DotOracle (which is stateful and not
// thread-safe — it owns the sampling RNG) are serialized by another.
//
// Fault tolerance (DESIGN.md §5d): queries carry an optional deadline, and
// a miss that cannot afford (or repeatedly fails) the full reverse-
// diffusion pass degrades down a ladder — fewer DDIM steps, then a PiT
// borrowed from a neighboring time-of-day bucket, then a cheap fallback
// estimate — so a wave never fails wholesale because stage 1 did. Every
// estimate is tagged with the ServedQuality level that produced it.

#ifndef DOT_CORE_ORACLE_SERVICE_H_
#define DOT_CORE_ORACLE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/dot_oracle.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace dot {

/// \brief Caching and fault-tolerance configuration.
struct OracleServiceConfig {
  /// Time-of-day slots per day used in the cache key (48 = 30-minute bins).
  int64_t tod_slots = 48;
  /// Maximum cached buckets; the least-recently-used bucket is evicted when
  /// an insert would exceed this.
  int64_t max_entries = 200000;

  /// DDIM steps of the kReducedSteps ladder level (must be < the oracle's
  /// configured sample_steps to actually save time).
  int64_t degraded_sample_steps = 4;
  /// Bounded retry for transient (Internal) stage-1 failures: total
  /// attempts per ladder level are 1 + max_retries.
  int64_t max_retries = 2;
  /// Backoff before retry k is retry_backoff_ms << (k-1) milliseconds,
  /// jittered by ±25% so shards that fail from a common cause desynchronize
  /// instead of re-storming the oracle in lockstep; retries that cannot fit
  /// their backoff inside the deadline are skipped.
  int64_t retry_backoff_ms = 1;
  /// kCachedNeighbor searches this many time-of-day slots on each side of
  /// the missing bucket for a cached PiT of the same OD pair.
  int64_t neighbor_slot_radius = 1;
  /// Estimate of last resort (kFallback). When unset, the oracle's stage-2
  /// training-mean travel time is served.
  std::function<double(const OdtInput&)> fallback_estimator;
};

/// \brief Per-call stage wall times, filled when QueryOptions::timing is
/// set. Lets the serving front-end split a request's latency into queue /
/// batch / stage-1 / stage-2 segments without re-instrumenting the core.
struct StageTiming {
  double stage1_us = 0;  ///< miss serving (ladder incl. diffusion sampling)
  double stage2_us = 0;  ///< batched travel-time estimator pass
};

/// \brief Per-request serving options.
struct QueryOptions {
  /// Soft deadline for the whole call, milliseconds since the call started
  /// (0 = none). When the predicted stage-1 cost (windowed p95 of the
  /// observed latency, lifetime p95 when the window is empty) exceeds the
  /// remaining budget, the service degrades instead of running late.
  double deadline_ms = 0;
  /// When set, Query/QueryBatch write their stage wall times here (output
  /// parameter; must outlive the call).
  StageTiming* timing = nullptr;
  /// When set, receives true iff stage-1 inference *failed* during the call
  /// (retries exhausted / NaN-poisoned sampler), false otherwise. Deadline-
  /// driven degradations do NOT count — they are the service working as
  /// intended, not the model failing. The shard health machinery keys its
  /// consecutive-failure quarantine off this signal.
  bool* stage1_failed = nullptr;
};

/// \brief Query statistics of an OracleService.
struct OracleServiceStats {
  int64_t queries = 0;        ///< individual queries (batch members count)
  int64_t batch_queries = 0;  ///< waves served
  int64_t cache_hits = 0;     ///< answered from a pre-existing cache entry
  /// Batch "free riders": queries whose bucket missed the cache but was
  /// filled by another query of the same wave, so they cost no extra
  /// diffusion pass. Counted separately from cache_hits — a dedup hit says
  /// the *wave* was redundant, not that the cache was warm.
  int64_t dedup_hits = 0;
  int64_t cache_misses = 0;   ///< bucket absent: paid a stage-1 inference
  int64_t evictions = 0;      ///< LRU evictions
  /// Fraction of queries that skipped stage-1 sampling (cache + dedup).
  double hit_rate() const {
    return queries > 0 ? static_cast<double>(cache_hits + dedup_hits) /
                             static_cast<double>(queries)
                       : 0.0;
  }
};

class OracleService;

/// \brief One service's slice of a wave that several services holding the
/// same model serve together (OracleService::QueryWaves).
struct ServiceWave {
  OracleService* service = nullptr;
  std::vector<OdtInput> odts;
  /// Each query's position in the whole wave, parallel to `odts`. Misses
  /// are sampled in position order, so the answers equal one QueryBatch of
  /// the whole wave on the first service's replica.
  std::vector<size_t> positions;

  // Outputs of QueryWaves.
  std::vector<DotEstimate> estimates;  ///< one per query, in `odts` order
  /// Stage 1 failed for a sample one of this slice's queries needed (see
  /// QueryOptions::stage1_failed); other slices' failures do not count.
  bool stage1_failed = false;
  int64_t cache_hits = 0;  ///< queries answered from a pre-existing entry
};

/// The query checks that need no grid: finite coordinates and a
/// non-negative departure time. InvalidArgument names the failed check.
/// OracleService validates with it before its service-area check, and the
/// serving batcher rejects a query failing it at admission.
Status CheckQueryFields(const OdtInput& odt);

/// \brief Bucketed LRU-cache front end for a trained DotOracle.
class OracleService {
 public:
  /// `oracle` must be trained and outlive the service.
  OracleService(DotOracle* oracle, OracleServiceConfig config = {});

  /// Answers a query, reusing the bucket's cached PiT when available. A
  /// miss that busts the deadline or exhausts stage-1 retries is answered
  /// at a degraded ladder level (see DotEstimate::quality) rather than
  /// failing; only invalid input or an untrained oracle return an error.
  /// The one-query case of QueryBatch: a wave of one.
  Result<DotEstimate> Query(const OdtInput& odt, const QueryOptions& opts = {});

  /// Answers a wave of queries: cache hits are served from their buckets,
  /// the remaining buckets are deduplicated and filled by one batched
  /// stage-1 sampling pass, and stage 2 runs once over the whole wave.
  /// Returns one estimate per input, in input order. Stage-1 failures
  /// degrade per the ladder and never fail the wave; any invalid input
  /// rejects the whole wave with InvalidArgument (naming the index). The
  /// one-slice case of QueryWaves.
  Result<std::vector<DotEstimate>> QueryBatch(const std::vector<OdtInput>& odts,
                                              const QueryOptions& opts = {});

  /// Serves several services' slices of one wave as one wave. Each slice's
  /// hits come from its own service's cache. The misses of all slices are
  /// deduplicated by bucket and sampled by one stage-1 pass in wave order,
  /// behind one deadline triage; retries and the reduced-steps round re-run
  /// only the samples that failed. One stage-2 pass scores every answer
  /// that has a PiT. Each service caches its own fresh full-quality PiTs
  /// (a bucket two slices miss is sampled once and cached by both) and
  /// serves its own ladder tail. The replicas must have equal
  /// DotOracle::ModelDigest(): both passes run on the first slice's
  /// replica, under its oracle lock. `opts.timing` receives the pass
  /// times, `opts.stage1_failed` the OR over slices. An invalid query
  /// fails the call with InvalidArgument (naming its index in its slice)
  /// before anything is served. Every other entry point runs this body.
  static Status QueryWaves(const std::vector<ServiceWave*>& waves,
                           const QueryOptions& opts = {});

  /// Answers a wave *without ever running stage 1* — the bounded-failover
  /// path for queries whose home shard is quarantined. The QueryBatch body
  /// with stage 1 switched off: an exact cached bucket serves at kFull, a
  /// neighboring time-of-day bucket at kCachedNeighbor, everything else at
  /// kFallback, so the kFull answers are exactly the cache hits. One
  /// batched stage-2 pass covers every query that found a PiT. Nothing is
  /// cached, and no miss or dedup hit is counted: the call never tries to
  /// fill a miss. Never trains, never samples, so it is safe to call
  /// against a shard whose model is poisoned.
  Result<std::vector<DotEstimate>> QueryDegraded(
      const std::vector<OdtInput>& odts);

  /// Snapshot of the running statistics.
  OracleServiceStats stats() const;
  int64_t cache_size() const;
  void ClearCache();

 private:
  struct CacheEntry {
    Pit pit;
    std::list<int64_t>::iterator lru_it;  // position in lru_ (front = MRU)
  };

  /// Stage-1 outcome for a set of cache misses, parallel to the misses:
  /// `quality[i]` is kFull or kReducedSteps when `pits[i]` was sampled, and
  /// kFallback when stage 1 skipped or failed the miss (the caller serves
  /// its ladder tail).
  struct MissServe {
    std::vector<Pit> pits;
    std::vector<ServedQuality> quality;
    /// Stage 1 was attempted for the miss and failed (retries exhausted,
    /// non-finite sample). Not set by deadline-driven skips. Feeds
    /// QueryOptions::stage1_failed.
    std::vector<char> failed;
  };

  /// QueryBatch / QueryDegraded: this service's wave of `odts`.
  Result<std::vector<DotEstimate>> ServeWave(const std::vector<OdtInput>& odts,
                                             const QueryOptions& opts,
                                             bool sample_misses);
  /// The one wave body (QueryWaves). With `sample_misses` false no miss is
  /// sampled, counted or cached: every miss takes the ladder tail.
  static Status RunWaves(const std::vector<ServiceWave*>& waves,
                         const QueryOptions& opts, bool sample_misses);

  int64_t BucketOf(const OdtInput& odt) const;
  /// Moves `it`'s bucket to the MRU position. Caller holds mu_.
  void Touch(std::unordered_map<int64_t, CacheEntry>::iterator it);
  /// Inserts (or refreshes) a bucket, evicting LRU entries as needed.
  /// Caller holds mu_.
  void InsertLocked(int64_t bucket, Pit pit);

  /// Boundary validation: CheckQueryFields, then in-area coordinates. The
  /// service area is the grid box inflated by 1% (GPS jitter at the
  /// boundary must not reject a serviceable trip).
  Status ValidateQuery(const OdtInput& odt) const;
  /// Stage-1 inference of the misses in `todo` at `sample_steps`, with
  /// bounded retry + exponential backoff on transient (Internal) failures.
  /// Each attempt re-runs only the misses still in `todo`; a sampled miss
  /// gets its PiT and `level` in `out` and leaves `todo`. Takes/releases
  /// oracle_mu_ per attempt.
  void InferWithRetry(const std::vector<OdtInput>& odts, int64_t sample_steps,
                      ServedQuality level, const QueryOptions& opts,
                      const Stopwatch& sw, std::vector<size_t>* todo,
                      MissServe* out);
  /// kCachedNeighbor lookup: a cached PiT of the same OD pair within
  /// neighbor_slot_radius time-of-day slots. Caller holds mu_.
  bool LookupNeighborLocked(int64_t bucket, Pit* pit);
  /// Runs stage 1's part of the degradation ladder over a set of cache
  /// misses: deadline triage, the full pass, then a reduced-steps round for
  /// the misses it failed. Without `sample` it skips stage 1 for all.
  MissServe ServeMisses(const std::vector<OdtInput>& miss_odts,
                        const QueryOptions& opts, const Stopwatch& sw,
                        bool sample);
  /// The estimate of last resort (kFallback).
  double FallbackMinutes(const OdtInput& odt) const;
  /// Bumps the per-level degradation counter (no-op for kFull).
  void RecordQuality(ServedQuality q);

  DotOracle* oracle_;
  OracleServiceConfig config_;

  // Registry metrics (process-wide, shared across service instances);
  // resolved once here so the hot path never touches the registry map.
  struct Metrics {
    Metrics();
    obs::Histogram* batch_latency_us;   // per-wave wall time
    obs::Histogram* batch_size;         // wave sizes
    obs::Counter* queries;
    obs::Counter* cache_hits;
    obs::Counter* dedup_hits;
    obs::Counter* cache_misses;
    obs::Counter* evictions;
    // Fault-tolerance series (DESIGN.md §5d). The stage-1 latency
    // histogram is the oracle's own (shared registry object); the rolling
    // window over the same series is the deadline triage's cost
    // prediction (current load, not process history), with the lifetime
    // p95 as fallback while the window is empty.
    obs::Histogram* stage1_latency_us;
    obs::RollingHistogram* stage1_window;
    obs::Counter* retries;                    // dot_serving_retries_total
    obs::Counter* degraded_reduced_steps;     // ..._degraded_total{level=...}
    obs::Counter* degraded_cached_neighbor;
    obs::Counter* degraded_fallback;
  };
  Metrics metrics_;

  mutable std::mutex mu_;  // guards cache_, lru_, stats_
  std::unordered_map<int64_t, CacheEntry> cache_;
  std::list<int64_t> lru_;  // front = most recently used
  OracleServiceStats stats_;

  std::mutex oracle_mu_;  // serializes calls into the stateful oracle
};

}  // namespace dot

#endif  // DOT_CORE_ORACLE_SERVICE_H_
