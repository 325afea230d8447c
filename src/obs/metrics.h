// Metrics registry for the DOT serving and training stack: counters,
// gauges, and fixed-bucket latency histograms, registered by name in a
// process-wide registry and exportable as Prometheus-style text or JSON.
//
// Design constraints (DESIGN.md §"Observability"):
//   - Recording must be cheap enough to leave on in serving hot paths:
//     counters are sharded across cache lines (one relaxed fetch_add, no
//     contention between threads), histograms are one binary search plus
//     two relaxed atomics. All recording is lock-free.
//   - Metric objects are created once (mutex-guarded registration) and the
//     returned pointers stay valid for the process lifetime, so call sites
//     look them up in a constructor / static and never pay the map lookup
//     on the hot path.
//   - This library sits below util (the thread pool reports into it), so it
//     depends on nothing but the standard library.

#ifndef DOT_OBS_METRICS_H_
#define DOT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dot {
namespace obs {

/// \brief Monotonic counter, sharded to keep concurrent increments from
/// bouncing one cache line between cores.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t delta = 1) {
    shards_[ShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Sum over shards. Concurrent increments may or may not be included.
  int64_t Value() const {
    int64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr int kShards = 16;  // power of two (masked index)
  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };
  static uint32_t ShardIndex();
  Shard shards_[kShards];
};

/// \brief Last-value gauge (epoch loss, grad norm, cache size, ...).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// Atomic add (CAS loop) — for up/down quantities recorded from several
  /// threads (in-flight requests), where Set() would lose concurrent
  /// updates.
  void Add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// \brief Read-only view of a histogram (see Histogram::Snapshot).
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  /// Pairs of (inclusive upper bound, cumulative count); the final pair's
  /// bound is +infinity.
  std::vector<std::pair<double, int64_t>> cumulative_buckets;
};

/// \brief Fixed-bucket histogram with quantile extraction.
///
/// Buckets are defined by a sorted list of inclusive upper bounds; an
/// implicit overflow bucket (+inf) catches everything above the last bound.
/// Quantiles are estimated by linear interpolation inside the bucket that
/// contains the target rank — exact at bucket boundaries, off by at most a
/// bucket width inside.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Quantile estimate for q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  HistogramSnapshot Snapshot() const;
  void Reset();

  const std::vector<double>& bounds() const { return bounds_; }

  /// Default bounds for latencies recorded in microseconds: roughly
  /// logarithmic from 1us to 100s (1-2-5 decades).
  static std::vector<double> LatencyBoundsUs();
  /// Small linear bounds for batch-size style distributions: 1..max in
  /// steps of `step`.
  static std::vector<double> LinearBounds(double start, double step, int n);
  /// Geometric bounds start, start*factor, ... (n bounds) for long-tailed
  /// count distributions (queue depth, wave sizes under overload).
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               int n);

 private:
  std::vector<double> bounds_;                      // sorted, inclusive upper
  std::vector<std::atomic<int64_t>> bucket_counts_;  // bounds.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class RollingHistogram;  // obs/window.h

/// \brief One registry entry of any kind (used by MetricsSnapshot).
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  /// Rolling-window histograms (obs/window.h): only samples from the last
  /// window contribute, so count/p50/p95/p99 track current load.
  std::map<std::string, HistogramSnapshot> windows;
};

/// \brief Process-wide name -> metric registry.
///
/// Names are sanitized to the Prometheus charset [a-zA-Z0-9_:] (invalid
/// characters become '_'). Requesting an existing name returns the same
/// object; requesting it as a different kind aborts (programmer error).
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter* GetCounter(const std::string& name);
  /// Labeled counter: registers/returns the series `name{key="value",...}`.
  /// Labels follow Prometheus semantics — one Counter object per distinct
  /// label set. Label values are sanitized to [a-zA-Z0-9_.:/-] so the text
  /// export never needs escaping; the `# TYPE` comment is emitted once per
  /// base name.
  Counter* GetCounter(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& labels);
  Gauge* GetGauge(const std::string& name);
  /// Labeled gauge: registers/returns the series `name{key="value",...}`
  /// (same label semantics and sanitization as the labeled counter). Used
  /// by per-shard state series such as `dot_shard_health{shard="0"}`.
  Gauge* GetGauge(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& labels);
  /// `bounds` is used only on first registration (empty = latency default).
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});
  /// Rolling-window histogram (60s window / 5s buckets, obs/window.h).
  /// `bounds` is used only on first registration (empty = latency default).
  /// Window series export as `<name>_window_p50/_p95/_p99/_count` gauges in
  /// the Prometheus text and under "windows" in the JSON dump.
  RollingHistogram* GetWindow(const std::string& name,
                              std::vector<double> bounds = {});

  /// Point-in-time copy of every registered metric.
  MetricsSnapshot Snapshot() const;
  /// Prometheus text exposition format (counters as `_total`-suffixed names
  /// verbatim, histograms as `_bucket`/`_sum`/`_count` series).
  std::string ToPrometheusText() const;
  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// with per-histogram count/sum/p50/p95/p99 and cumulative buckets.
  std::string ToJson() const;

  /// Zeroes every metric's value without invalidating pointers (tests,
  /// bench sections). Registered names persist.
  void ResetValues();

 private:
  MetricsRegistry();
  ~MetricsRegistry();  // defined where RollingHistogram is complete

  mutable std::mutex mu_;  // guards the maps, not the metric values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<RollingHistogram>> windows_;
};

/// Convenience wrappers over MetricsRegistry::Get().
MetricsSnapshot SnapshotMetrics();
std::string MetricsToPrometheusText();
std::string MetricsToJson();
/// Writes the combined JSON dump (registry + op profiler section) to
/// `path`. Returns false on I/O failure.
bool DumpMetrics(const std::string& path);

/// Escapes `s` for inclusion inside a JSON string literal: quote,
/// backslash, and every control character (< 0x20) become escape
/// sequences. The canonical escaper for every JSON emitter in the tree
/// (chrome-trace export, metrics JSON, /varz, slow-query ring).
std::string JsonEscape(const std::string& s);

namespace internal {
/// Quantile estimate by linear interpolation over per-bucket counts — the
/// shared math behind Histogram::Quantile and RollingHistogram::Quantile.
/// `counts` has bounds.size() + 1 entries (last one = +inf overflow);
/// `total` is their sum. Returns 0 when total <= 0.
double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<int64_t>& counts, int64_t total,
                      double q);
}  // namespace internal

}  // namespace obs
}  // namespace dot

#endif  // DOT_OBS_METRICS_H_
