// A worker shard of the sharded oracle service (DESIGN.md §5i): one
// OracleShard owns one model replica (a DotOracle loaded from a sealed
// checkpoint), one OracleService (its own LRU cache + degradation ladder),
// and its own health state. The router (serve/router.h) partitions query
// waves across shards by OD-pair hash and hands the shares to ServeWaves.
// Before the model dispatch each shard runs its own gate (quarantine,
// probe, failpoints); shards that pass and hold the same model (equal
// DotOracle::ModelDigest) then share one stage-1 and one stage-2 pass
// (OracleService::QueryWaves), each answering from and filling its own
// cache; after it each shard does its own health bookkeeping. Shards are
// cache and failure domains, not concurrency lanes: a wave runs on the
// caller's thread, and a split wave still samples its misses as one batch.
//
// Health state machine:
//
//             consecutive stage-1 failures
//   healthy ------------------------------> quarantined
//      ^                                         |
//      +------------- probe success -------------+
//                              (probe on traffic, exponential backoff
//                               between probes)
//
//   - healthy shards serve the full path (QueryBatch). The rolling-window
//     p95 of the shard's wave latency is reported (status().window_p95_us,
//     /shardz) so operators see pressure building before failures; it
//     does not change the state.
//   - A stage-1 failure (retries exhausted, NaN-poisoned sampler — NOT a
//     deadline-driven degradation) bumps a consecutive-failure counter;
//     at kQuarantineAfterFailures the shard is quarantined. Only a wave
//     that drew a stage-1 sample for the shard resets the counter: a wave
//     answered from cache hits alone, or whose misses deadline triage all
//     skipped, leaves the counter, the health and the probe schedule as
//     they were.
//   - Quarantined shards answer every wave through the degradation
//     ladder without touching stage 1 (OracleService::QueryDegraded):
//     exact cached bucket, neighboring time-of-day bucket, the training
//     mean — tagged with ServedQuality so clients can tell. No wave is
//     ever dropped.
//   - Once the probe backoff elapses, the next wave for the shard is the
//     probe: it runs the full path, and success flips the shard healthy
//     while failure doubles the backoff. A probe wave that draws no sample
//     proves nothing, so the probe stays due and is not counted.
//
// Zero-downtime hot swap: HotSwap() builds a shadow model via the shard's
// ModelFactory (normally a sealed-checkpoint load), warms it with a canary
// batch of recently-served ODs, and atomically publishes a new versioned
// runtime. In-flight waves keep a shared_ptr to the old runtime and finish
// on the old model; the swap never blocks serving.
//
// Fault injection: the `serve.shard_dispatch` failpoint (and its per-shard
// variant `serve.shard_dispatch.<id>`) fires before each full-path
// dispatch. `error`/`nan` simulate a crashed / poisoned model call (the
// shard's share is answered through the ladder and counts as a shard
// failure); `delay` injects latency ahead of the dispatch (raises the
// window p95). A stage-1 failure inside a shared pass counts only against
// the shards whose queries needed the failed samples.

#ifndef DOT_CORE_SHARD_H_
#define DOT_CORE_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/oracle_service.h"
#include "obs/window.h"
#include "util/failpoint.h"

namespace dot {

/// \brief Shard health (DESIGN.md §5i). Gauge values are the enum values;
/// 1 named a retired report-only state and stays unused, so exported
/// dot_shard_health values keep their meaning.
enum class ShardHealth : int {
  kHealthy = 0,
  kQuarantined = 2,  ///< full path disabled; serving through the ladder
};

/// Short lowercase name ("healthy", "quarantined").
const char* ShardHealthName(ShardHealth h);

/// Consecutive stage-1 failures before a shard is quarantined.
constexpr int64_t kQuarantineAfterFailures = 3;

/// Builds a fresh trained model replica for a shard — normally by loading
/// a sealed checkpoint. Called at shard creation and again on every
/// HotSwap() (the swap's shadow model).
using ModelFactory = std::function<Result<std::unique_ptr<DotOracle>>()>;

/// \brief Per-shard configuration.
struct ShardConfig {
  /// Stable identifier: the metric label and the per-shard failpoint
  /// suffix (`serve.shard_dispatch.<id>`).
  std::string shard_id;

  /// First probe is scheduled this long after quarantine...
  double probe_backoff_initial_ms = 200;
  /// ...and each failed probe doubles the wait, capped here.
  double probe_backoff_max_ms = 10000;

  /// ODs retained from recently-served waves to warm a swap's shadow model
  /// (0 = swap without a canary pass).
  int64_t canary_capacity = 4;

  /// Cache / ladder configuration of the shard's OracleService.
  OracleServiceConfig service;

  /// Rolling window of the reported wave-latency p95 (seconds).
  double window_seconds = 60.0;
  double window_bucket_seconds = 5.0;

  /// Injectable monotonic clock, milliseconds. Tests drive probe backoff
  /// deterministically; empty = steady_clock.
  std::function<double()> now_ms;
};

/// \brief Point-in-time shard status (rendered by /shardz).
struct ShardStatus {
  std::string id;
  ShardHealth health = ShardHealth::kHealthy;
  int64_t model_version = 0;
  int64_t consecutive_failures = 0;
  int64_t waves = 0;
  int64_t queries = 0;
  int64_t failures = 0;     ///< stage-1/dispatch failures observed
  int64_t quarantines = 0;  ///< healthy->quarantined transitions
  /// Probes concluded while quarantined: a gate failure, or a stage-1
  /// failure or success.
  int64_t probes = 0;
  int64_t swaps = 0;        ///< completed hot swaps
  int64_t cache_size = 0;
  double window_p95_us = 0;
  /// Milliseconds until the next probe is due (0 when not quarantined).
  double next_probe_in_ms = 0;
};

class OracleShard;

/// \brief One shard's share of a wave (OracleShard::ServeWaves): the
/// queries with their wave positions, and after the call their answers.
/// ServeWaves sets `wave.service` to the replica's service it pinned.
struct ShardWave {
  OracleShard* shard = nullptr;
  ServiceWave wave;
};

/// \brief One worker shard: model replica + cache + health machine.
class OracleShard {
 public:
  /// Builds the shard's first model via `factory`. Fails if the factory
  /// fails or produces an untrained model.
  static Result<std::unique_ptr<OracleShard>> Create(ModelFactory factory,
                                                     ShardConfig config);

  /// Serves one wave split across distinct shards, on the calling thread.
  /// Gates run in `waves` order; each shard's wave lock is held from its
  /// gate to its finish, so callers must list shards in one global order
  /// (the router's shard index). Shares that pass their gate are grouped
  /// by model digest, and each group is one OracleService::QueryWaves
  /// whose passes run on the group's first replica. Never loses a request:
  /// failures and quarantine serve degraded-tagged answers through the
  /// ladder. An invalid query gets its own error in its estimate's status
  /// and counts nowhere; only an untrained model fails the whole wave.
  /// `opts.timing` receives the summed pass times.
  static Status ServeWaves(std::vector<ShardWave>* waves,
                           const QueryOptions& opts);

  /// The one-shard case of ServeWaves.
  Result<std::vector<DotEstimate>> ServeWave(const std::vector<OdtInput>& odts,
                                             const QueryOptions& opts);

  /// Zero-downtime model swap: shadow-load via the factory, canary-warm,
  /// atomically publish a new versioned runtime. In-flight waves finish on
  /// the old model. A factory failure, untrained model, or failed canary
  /// leaves the current model serving and returns the error. On success
  /// the shard re-enters kHealthy (the failure history belonged to the old
  /// model) with a cold cache (cached PiTs were the old model's output).
  Status HotSwap();

  ShardHealth health() const;
  int64_t model_version() const;
  ShardStatus status() const;
  /// JSON object for /shardz.
  std::string StatusJson() const;

  const std::string& id() const { return config_.shard_id; }

 private:
  OracleShard(ShardConfig config);

  /// The versioned model runtime a wave pins for its whole duration. Its
  /// model never changes after BuildRuntime, so the digest is computed
  /// once there.
  struct ModelRuntime {
    std::shared_ptr<DotOracle> oracle;
    std::unique_ptr<OracleService> service;
    int64_t version = 0;
    uint64_t digest = 0;  ///< oracle->ModelDigest()
  };

  /// A shard's state between its gate and its finish in ServeWaves.
  struct Pending {
    std::unique_lock<std::mutex> lock;  // serve_mu_, held for the wave
    std::shared_ptr<ModelRuntime> rt;   // pinned before the gate
    bool dispatched = false;  ///< passed the gate: the full path serves it
    double gate_us = 0;       ///< dispatch failpoint time (kDelay sleeps)
  };

  double NowMs() const;
  std::shared_ptr<ModelRuntime> CurrentRuntime() const;
  /// Builds a runtime around a factory-produced oracle (shared by Create
  /// and HotSwap).
  static Result<std::shared_ptr<ModelRuntime>> BuildRuntime(
      const ModelFactory& factory, const ShardConfig& config,
      int64_t version);

  /// The phase before the model dispatch: takes the wave lock, pins the
  /// runtime, then runs the quarantine/probe gate and the dispatch
  /// failpoints. A ladder-only or failed share is answered here through
  /// QueryDegraded; otherwise `p->dispatched` is set.
  Status BeginWave(ServiceWave* wave, Pending* p);
  /// The phase after a dispatched share was served: the wave metrics,
  /// then (unless every query of the share was invalid) the p95 window,
  /// the health bookkeeping and the canary ring. Health moves only on
  /// stage-1 evidence: a failure, or a valid answer from a sample drawn in
  /// this wave.
  void FinishWave(const ServiceWave& wave, double wave_us);

  /// Health bookkeeping after a full-path wave; while quarantined each
  /// call concludes a probe. Caller holds serve_mu_.
  void OnDispatchFailure();
  void OnDispatchSuccess();
  void SetHealthLocked(ShardHealth h);  // caller holds state_mu_

  /// Tallies the served (valid) queries, their quality labels and the
  /// wave's cache hits.
  void RecordWaveMetrics(const std::vector<DotEstimate>& estimates,
                         int64_t cache_hits);

  ShardConfig config_;
  ModelFactory factory_;

  // Resolved once; per-call cost is one relaxed load when disarmed. The
  // DOT_FAILPOINT macro caches per *call site*, which would pin the first
  // shard's name — resolved explicitly instead.
  fail::Failpoint* fp_dispatch_;        // serve.shard_dispatch
  fail::Failpoint* fp_dispatch_shard_;  // serve.shard_dispatch.<id>

  // Per-shard registry metrics (labels {shard=<id>}), resolved once.
  struct Metrics {
    Metrics(const std::string& id);
    obs::Counter* waves;
    obs::Counter* queries;
    obs::Counter* failures;
    obs::Counter* quarantines;
    obs::Counter* probes;
    obs::Counter* swaps;
    obs::Counter* cache_hits;
    obs::Counter* quality[4];  // indexed by ServedQuality
    obs::Gauge* health;
    obs::Gauge* model_version;
  };
  Metrics metrics_;

  /// Rolling wave-latency window behind status().window_p95_us. Owned here
  /// (not the registry's): it is per shard and resets on swap.
  obs::RollingHistogram window_;

  mutable std::mutex serve_mu_;  // serializes waves (held by Pending::lock)
  mutable std::mutex model_mu_;  // guards runtime_ (the swap point)
  std::shared_ptr<ModelRuntime> runtime_;
  std::mutex swap_mu_;  // serializes HotSwap calls

  mutable std::mutex state_mu_;  // guards everything below
  ShardHealth health_ = ShardHealth::kHealthy;
  int64_t consecutive_failures_ = 0;
  double probe_backoff_ms_ = 0;
  double next_probe_ms_ = 0;  // clock time the next probe is due
  std::vector<OdtInput> canary_;  // ring: most recent ODs for swap warmup
  size_t canary_next_ = 0;        // ring write cursor
  ShardStatus stats_;
};

}  // namespace dot

#endif  // DOT_CORE_SHARD_H_
