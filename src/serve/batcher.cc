#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "obs/trace.h"
#include "util/logging.h"

namespace dot {
namespace serve {

namespace {

double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DynamicBatcher::Metrics::Metrics() {
  auto& reg = obs::MetricsRegistry::Get();
  wave_size = reg.GetHistogram("dot_server_wave_size",
                               obs::Histogram::LinearBounds(1, 1, 64));
  queue_wait_us = reg.GetHistogram("dot_server_queue_wait_us");
  queue_depth = reg.GetHistogram("dot_server_queue_depth",
                                 obs::Histogram::ExponentialBounds(1, 2, 12));
  flush_size =
      reg.GetCounter("dot_server_wave_flush_total", {{"trigger", "size"}});
  flush_age =
      reg.GetCounter("dot_server_wave_flush_total", {{"trigger", "age"}});
  flush_drain =
      reg.GetCounter("dot_server_wave_flush_total", {{"trigger", "drain"}});
  rejected_full = reg.GetCounter("dot_server_overload_rejected_total",
                                 {{"reason", "queue_full"}});
  rejected_stale = reg.GetCounter("dot_server_overload_rejected_total",
                                  {{"reason", "queue_stale"}});
}

DynamicBatcher::DynamicBatcher(BatchBackend backend, BatcherConfig config)
    : backend_(std::move(backend)), config_(std::move(config)) {
  DOT_CHECK(backend_ != nullptr) << "batcher needs a backend";
  DOT_CHECK(config_.max_batch >= 1) << "max_batch must be positive";
  if (!config_.now_ms) {
    config_.now_ms = SteadyNowMs;
  } else {
    DOT_CHECK(config_.manual_pump)
        << "a custom clock requires manual_pump (the batcher thread sleeps "
           "in real time)";
  }
  if (!config_.manual_pump) {
    thread_ = std::thread([this] { ThreadLoop(); });
  }
}

DynamicBatcher::~DynamicBatcher() { Shutdown(); }

Status DynamicBatcher::Submit(const OdtInput& odt, double deadline_ms,
                              ResponseCallback done) {
  return Submit(odt, deadline_ms, /*root_span=*/0,
                [done = std::move(done)](const Result<DotEstimate>& r,
                                         const TimingBreakdown&) { done(r); });
}

Status DynamicBatcher::Submit(const OdtInput& odt, double deadline_ms,
                              uint64_t root_span, TimedResponseCallback done) {
  // Refuse malformed outside input before it takes a queue slot.
  DOT_RETURN_NOT_OK(CheckQueryFields(odt));
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    return Status::FailedPrecondition("batcher: shutting down");
  }
  if (static_cast<int64_t>(queue_.size()) >= config_.queue_capacity) {
    ++stats_.rejected_full;
    metrics_.rejected_full->Increment();
    return Status::ResourceExhausted("server overloaded: queue full");
  }
  double now = Now();
  if (static_cast<int64_t>(queue_.size()) >= config_.max_batch &&
      now - queue_.front().enqueue_ms > config_.queue_budget_ms) {
    // A full wave is already queued and its head has waited past the
    // latency budget: the backend is behind, and anything admitted now
    // would only be served stale. Shed. An arrival that still fits in the
    // next wave is not behind, even when a short age-flushed wave left a
    // few requests to go stale while the backend ran it.
    ++stats_.rejected_stale;
    metrics_.rejected_stale->Increment();
    return Status::ResourceExhausted("server overloaded: queue stale");
  }
  Pending p{odt, deadline_ms, now, root_span, 0, std::move(done)};
  // Only a traced request (root_span set at decode, implying tracing was
  // on) pays the trace-clock read; the plain hot path stays clock-free.
  if (root_span != 0) p.enqueue_trace_us = obs::TraceNowUs();
  queue_.push_back(std::move(p));
  ++stats_.submitted;
  metrics_.queue_depth->Observe(static_cast<double>(queue_.size()));
  cv_.notify_all();
  return Status::OK();
}

int64_t DynamicBatcher::FlushWaveLocked(std::unique_lock<std::mutex>* lock,
                                        FlushReason reason) {
  size_t n = std::min<size_t>(queue_.size(),
                              static_cast<size_t>(config_.max_batch));
  if (n == 0) return 0;
  double now = Now();
  // The wave's members, popped; only the queries are copied out, because
  // the backend takes them as one vector.
  std::vector<Pending> wave;
  std::vector<OdtInput> odts;
  wave.reserve(n);
  odts.reserve(n);
  // The wave honors the earliest remaining deadline of its members: the
  // most urgent request dictates how much the whole wave may degrade.
  double earliest = 0;
  for (size_t i = 0; i < n; ++i) {
    wave.push_back(std::move(queue_.front()));
    queue_.pop_front();
    const Pending& p = wave.back();
    double waited_ms = now - p.enqueue_ms;
    metrics_.queue_wait_us->Observe(waited_ms * 1e3);
    if (p.deadline_ms > 0) {
      // An already-expired deadline still maps to a tiny positive budget so
      // the ladder sees maximal pressure (0 would mean "no deadline").
      double remaining = std::max(0.1, p.deadline_ms - waited_ms);
      earliest = earliest == 0 ? remaining : std::min(earliest, remaining);
    }
    odts.push_back(p.odt);
  }
  ++stats_.waves;
  switch (reason) {
    case FlushReason::kSize:
      ++stats_.size_flushes;
      metrics_.flush_size->Increment();
      break;
    case FlushReason::kAge:
      ++stats_.age_flushes;
      metrics_.flush_age->Increment();
      break;
    case FlushReason::kDrain:
      ++stats_.drain_flushes;
      metrics_.flush_drain->Increment();
      break;
  }
  metrics_.wave_size->Observe(static_cast<double>(n));
  lock->unlock();

  // Trace stitching: every traced member gets its queue wait recorded as a
  // span under its own root, and the wave's backend spans are parented to
  // the first traced member's root (one wave = one subtree; concurrent
  // traced members share it). One relaxed load when tracing is off.
  uint64_t owner_root = 0;
  if (obs::TracingEnabled()) {
    int64_t now_trace_us = obs::TraceNowUs();
    for (const Pending& p : wave) {
      if (p.root_span == 0) continue;
      if (owner_root == 0) owner_root = p.root_span;
      obs::RecordSpan("queue_wait", obs::NewSpanId(), p.root_span,
                      p.enqueue_trace_us, now_trace_us - p.enqueue_trace_us);
    }
  }

  QueryOptions opts;
  opts.deadline_ms = earliest;
  StageTiming stage_timing;
  opts.timing = &stage_timing;
  double start_ms = Now();
  Result<std::vector<DotEstimate>> result = std::vector<DotEstimate>{};
  {
    // The wave span covers the whole backend call; InheritedParent makes
    // it (and everything the backend opens, across the thread pool) a
    // descendant of the owning request's root.
    std::optional<obs::InheritedParent> inherit;
    std::optional<obs::TraceSpan> wave_span;
    if (owner_root != 0) {
      inherit.emplace(owner_root);
      wave_span.emplace("wave", "\"size\": " + std::to_string(n));
    }
    result = backend_(odts, opts);
  }
  double end_ms = Now();
  double wave_us = (end_ms - start_ms) * 1e3;
  if (result.ok() && result->size() != odts.size()) {
    result = Status::Internal("backend returned " +
                              std::to_string(result->size()) +
                              " answers for a wave of " +
                              std::to_string(odts.size()));
  }
  TimingBreakdown timing;
  timing.stage1_us = stage_timing.stage1_us;
  timing.stage2_us = stage_timing.stage2_us;
  timing.batch_wait_us =
      std::max(0.0, wave_us - stage_timing.stage1_us - stage_timing.stage2_us);
  for (size_t i = 0; i < n; ++i) {
    timing.queue_us = (now - wave[i].enqueue_ms) * 1e3;
    // A member's own error (invalid input) is its answer; a whole-wave
    // error answers every member.
    if (!result.ok()) {
      wave[i].done(Result<DotEstimate>(result.status()), timing);
    } else if (!(*result)[i].status.ok()) {
      wave[i].done(Result<DotEstimate>((*result)[i].status), timing);
    } else {
      wave[i].done(Result<DotEstimate>((*result)[i]), timing);
    }
  }

  lock->lock();
  follow_up_end_ms_ = end_ms + (end_ms - start_ms);
  stats_.completed += static_cast<int64_t>(n);
  cv_.notify_all();
  return static_cast<int64_t>(n);
}

double DynamicBatcher::HeadDueMsLocked() const {
  double head_ms = queue_.front().enqueue_ms;
  return std::min(head_ms + config_.max_wave_age_ms,
                  std::max(head_ms, follow_up_end_ms_));
}

void DynamicBatcher::ThreadLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) break;
      continue;
    }
    // Wait for a trigger: the size trigger (new submissions notify) or the
    // age trigger (timed wait until the oldest request's flush due time).
    while (!stopping_ &&
           static_cast<int64_t>(queue_.size()) < config_.max_batch) {
      double due_in_ms = HeadDueMsLocked() - Now();
      if (due_in_ms <= 0) break;
      cv_.wait_for(lock,
                   std::chrono::duration<double, std::milli>(due_in_ms));
    }
    if (queue_.empty()) continue;
    FlushReason reason =
        static_cast<int64_t>(queue_.size()) >= config_.max_batch
            ? FlushReason::kSize
            : (stopping_ ? FlushReason::kDrain : FlushReason::kAge);
    FlushWaveLocked(&lock, reason);
  }
}

void DynamicBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    cv_.notify_all();
  }
  {
    // Serialize the join: Shutdown may race the destructor.
    std::lock_guard<std::mutex> jlock(join_mu_);
    if (thread_.joinable()) {
      thread_.join();  // the loop drains the queue before exiting
    }
  }
  if (!config_.manual_pump) return;
  // Manual mode: drain inline.
  std::unique_lock<std::mutex> lock(mu_);
  while (!queue_.empty()) {
    FlushWaveLocked(&lock, FlushReason::kDrain);
  }
}

int64_t DynamicBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

BatcherStats DynamicBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int64_t DynamicBatcher::PumpOnce(bool force) {
  DOT_CHECK(config_.manual_pump) << "PumpOnce requires manual_pump";
  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.empty()) return 0;
  bool size_trigger =
      static_cast<int64_t>(queue_.size()) >= config_.max_batch;
  bool age_trigger = Now() >= HeadDueMsLocked();
  if (!size_trigger && !age_trigger && !force) return 0;
  FlushReason reason = size_trigger ? FlushReason::kSize
                       : age_trigger ? FlushReason::kAge
                                     : FlushReason::kDrain;
  return FlushWaveLocked(&lock, reason);
}

BatchBackend OracleBackend(OracleService* service) {
  return [service](const std::vector<OdtInput>& odts,
                   const QueryOptions& opts) {
    return service->QueryBatch(odts, opts);
  };
}

}  // namespace serve
}  // namespace dot
