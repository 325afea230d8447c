// Deadline-aware dynamic batcher (DESIGN.md §5g): coalesces concurrent
// single queries into waves for one batched backend (the shard router in
// dot_server).
//
// Requests enter a bounded FIFO queue; a wave is flushed when the queue
// reaches `max_batch` (size trigger) or the oldest queued request is due
// (age trigger):
//
//   due = min(head + max_wave_age_ms, max(head, follow_up_end))
//   follow_up_end = last_wave_end + last_wave_service
//
// `max_wave_age_ms` caps what a lone query pays for the chance of sharing
// a diffusion pass. The last wave's *follow-up window* lasts one last-wave
// service time after that wave ended; closed-loop callers re-submitting as
// a wave answers them land inside it. A head that arrives during a wave or
// inside its follow-up window waits until the window closes, but at most
// `max_wave_age_ms`; a stage-1 wave's window is far longer than the age,
// so there the age decides unless the head arrives late in the window. A
// head that arrives after the window has closed, i.e. after an idle gap
// longer than one last-wave service time, flushes at once, whatever that
// wave cost.
//
// The wave's QueryOptions carry the *earliest* remaining deadline of its
// members, so the degradation ladder serves the whole wave at the quality
// the most urgent request can afford.
//
// A query that fails CheckQueryFields (non-finite coordinates, negative
// departure time) is rejected at Submit with InvalidArgument, before it is
// queued. A query that fails only the backend's own validation (outside
// the service area) gets its error from its DotEstimate::status; the rest
// of its wave is answered as usual.
//
// Admission control is the backpressure mechanism: a Submit against a full
// queue, or while a full wave (`max_batch` requests) is queued and its head
// has already waited past `queue_budget_ms` (the backend is not keeping up;
// anything added now would be served stale), is rejected immediately with a
// typed ResourceExhausted — overload answers in microseconds instead of
// queueing without bound.
//
// Shutdown() drains gracefully: no new admissions, every queued request is
// flushed in waves and answered before the call returns.
//
// The clock is injectable (BatcherConfig::now_ms) and `manual_pump` mode
// runs no background thread — tests drive wave formation deterministically
// with PumpOnce() under a fake clock.

#ifndef DOT_SERVE_BATCHER_H_
#define DOT_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "core/oracle_service.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace dot {
namespace serve {

/// The batched backend a wave is handed to: ShardRouter::Route in
/// production (RouterBackend), one OracleService::QueryBatch or a stub in
/// tests.
using BatchBackend = std::function<Result<std::vector<DotEstimate>>(
    const std::vector<OdtInput>&, const QueryOptions&)>;

/// Per-request completion callback. Invoked exactly once for every
/// *admitted* request (rejected Submits never get a callback — the Submit
/// status itself is the answer), on the batcher thread (or inside
/// PumpOnce/Shutdown).
using ResponseCallback = std::function<void(const Result<DotEstimate>&)>;

/// Timing-aware completion callback (same contract as ResponseCallback).
/// The breakdown holds the member's own queue wait and its wave's shared
/// batch-wait and stage times.
using TimedResponseCallback =
    std::function<void(const Result<DotEstimate>&, const TimingBreakdown&)>;

struct BatcherConfig {
  /// Size trigger: a wave never exceeds this many queries.
  int64_t max_batch = 16;
  /// Age trigger: the longest the oldest queued request waits for
  /// companions. It flushes sooner once the last wave's follow-up window
  /// (one last-wave service time after that wave ended) has closed, and at
  /// once if it arrived after that window.
  double max_wave_age_ms = 5.0;
  /// Admission control: hard queue bound...
  int64_t queue_capacity = 1024;
  /// ...and the staleness budget — reject new arrivals while at least
  /// max_batch requests are queued and the head has already waited longer
  /// than this.
  double queue_budget_ms = 100.0;
  /// Injectable monotonic clock in milliseconds; defaults to steady_clock.
  /// Custom clocks require manual_pump (the background thread sleeps in
  /// real time).
  std::function<double()> now_ms;
  /// No background thread; tests call PumpOnce() to form waves.
  bool manual_pump = false;
};

/// \brief Running batcher counters (all guarded by the queue mutex).
struct BatcherStats {
  int64_t submitted = 0;        ///< admitted requests
  int64_t completed = 0;        ///< callbacks delivered
  int64_t rejected_full = 0;    ///< typed overload: queue at capacity
  int64_t rejected_stale = 0;   ///< typed overload: full wave queued, head stale
  int64_t waves = 0;            ///< backend invocations
  int64_t size_flushes = 0;     ///< waves triggered by max_batch
  /// Waves triggered by the head's due time (the header comment's rule):
  /// max_wave_age_ms, the close of the last wave's follow-up window when
  /// that comes first, or the head's arrival if it came after the window.
  int64_t age_flushes = 0;
  int64_t drain_flushes = 0;    ///< waves flushed by Shutdown()
};

/// \brief Coalesces Submit()ed queries into batched backend calls.
class DynamicBatcher {
 public:
  DynamicBatcher(BatchBackend backend, BatcherConfig config = {});
  ~DynamicBatcher();  // implies Shutdown()

  /// Admits a query (callback fires later, with its estimate or the
  /// backend's error) or rejects it: InvalidArgument for a query failing
  /// CheckQueryFields, ResourceExhausted under overload, FailedPrecondition
  /// after Shutdown. `deadline_ms` is the client budget from now (0 =
  /// none).
  Status Submit(const OdtInput& odt, double deadline_ms, ResponseCallback done);

  /// As above, receiving the per-request timing breakdown alongside the
  /// result. `root_span` is the span id of the request's root span in the
  /// active obs recording (0 = untraced). When set, the batcher records a
  /// queue_wait span under it and parents the wave's backend spans to the
  /// first traced member.
  Status Submit(const OdtInput& odt, double deadline_ms, uint64_t root_span,
                TimedResponseCallback done);

  /// Graceful drain: stops admissions, flushes every queued request, waits
  /// for all callbacks, stops the thread. Idempotent.
  void Shutdown();

  /// Manual mode: flushes one wave if a trigger (size, age, or `force`)
  /// fires. Returns the wave size (0 = no trigger). Requires manual_pump.
  int64_t PumpOnce(bool force = false);

  int64_t queue_depth() const;
  BatcherStats stats() const;

 private:
  struct Pending {
    OdtInput odt;
    double deadline_ms = 0;  // client budget measured from enqueue_ms
    double enqueue_ms = 0;
    uint64_t root_span = 0;
    int64_t enqueue_trace_us = 0;  // TraceNowUs() at Submit (traced only)
    TimedResponseCallback done;
  };
  enum class FlushReason { kSize, kAge, kDrain };

  double Now() const { return config_.now_ms(); }
  /// When the queue head's age trigger fires (the rule in the header
  /// comment). Caller holds mu_ and the queue is non-empty.
  double HeadDueMsLocked() const;
  /// Pops up to max_batch requests and answers them through the backend.
  /// Called with mu_ held; unlocks around the backend call. Returns the
  /// wave size.
  int64_t FlushWaveLocked(std::unique_lock<std::mutex>* lock,
                          FlushReason reason);
  void ThreadLoop();

  BatchBackend backend_;
  BatcherConfig config_;

  struct Metrics {
    Metrics();
    obs::Histogram* wave_size;       // dot_server_wave_size
    obs::Histogram* queue_wait_us;   // dot_server_queue_wait_us
    obs::Histogram* queue_depth;     // dot_server_queue_depth (at admission)
    obs::Counter* flush_size;        // dot_server_wave_flush_total{trigger=..}
    obs::Counter* flush_age;
    obs::Counter* flush_drain;
    obs::Counter* rejected_full;     // dot_server_overload_rejected_total{..}
    obs::Counter* rejected_stale;
  };
  Metrics metrics_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  BatcherStats stats_;
  // End of the last wave's follow-up window: its backend call's end plus
  // its cost, both timed with Now(). It bounds the next head's wait
  // (HeadDueMsLocked); +infinity leaves the first wave to the plain age
  // rule.
  double follow_up_end_ms_ = std::numeric_limits<double>::infinity();
  bool stopping_ = false;
  std::mutex join_mu_;  // serializes Shutdown/destructor joins
  std::thread thread_;
};

/// Adapts one OracleService into a BatchBackend (unsharded; the serving
/// tests use it, production serves through RouterBackend).
BatchBackend OracleBackend(OracleService* service);

}  // namespace serve
}  // namespace dot

#endif  // DOT_SERVE_BATCHER_H_
