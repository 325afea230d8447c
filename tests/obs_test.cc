// Tests for the observability subsystem: metrics registry, trace spans
// (including nesting across thread-pool tasks), and op-level profiling.

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/ring.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace dot {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.Value(), static_cast<int64_t>(kThreads) * kPerThread);
}

TEST(CounterTest, IncrementByDelta) {
  obs::Counter counter;
  counter.Increment(5);
  counter.Increment(-2);
  EXPECT_EQ(counter.Value(), 3);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(GaugeTest, SetAndRead) {
  obs::Gauge gauge;
  gauge.Set(3.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.25);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  obs::Histogram h({10.0, 20.0, 50.0});
  h.Observe(10.0);   // le=10 (inclusive)
  h.Observe(10.5);   // le=20
  h.Observe(20.0);   // le=20
  h.Observe(49.0);   // le=50
  h.Observe(50.01);  // overflow (+inf)
  obs::HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.cumulative_buckets.size(), 4u);
  EXPECT_EQ(s.cumulative_buckets[0].second, 1);  // <= 10
  EXPECT_EQ(s.cumulative_buckets[1].second, 3);  // <= 20
  EXPECT_EQ(s.cumulative_buckets[2].second, 4);  // <= 50
  EXPECT_EQ(s.cumulative_buckets[3].second, 5);  // <= +inf
  EXPECT_EQ(s.count, 5);
  EXPECT_DOUBLE_EQ(s.sum, 10.0 + 10.5 + 20.0 + 49.0 + 50.01);
}

TEST(HistogramTest, QuantileInterpolatesInsideBuckets) {
  // 100 observations spread one per unit across (0, 100] with bounds every
  // 10: each bucket holds exactly 10, so quantiles are exact up to the
  // linear interpolation inside one bucket.
  obs::Histogram h(obs::Histogram::LinearBounds(10, 10, 10));
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  EXPECT_NEAR(h.Quantile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.Quantile(0.95), 95.0, 1.0);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 1.0);
  EXPECT_NEAR(h.Quantile(1.00), 100.0, 1e-9);
  // Degenerate cases.
  obs::Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
}

TEST(HistogramTest, QuantileOfOverflowBucketReportsLastBound) {
  obs::Histogram h({10.0});
  h.Observe(1e9);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
}

TEST(HistogramTest, ConcurrentObservationsKeepTotalCount) {
  obs::Histogram h(obs::Histogram::LatencyBoundsUs());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(static_cast<double>(t * 17 + i % 997));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.Count(), static_cast<int64_t>(kThreads) * kPerThread);
  obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.cumulative_buckets.back().second, h.Count());
}

bool IsValidPrometheusLine(const std::string& line) {
  if (line.empty()) return true;
  if (line.rfind("# TYPE ", 0) == 0) return true;
  // metric_name{labels} value | metric_name value
  size_t space = line.rfind(' ');
  if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
    return false;
  }
  std::string name = line.substr(0, space);
  size_t brace = name.find('{');
  if (brace != std::string::npos) {
    if (name.back() != '}') return false;
    name = name.substr(0, brace);
  }
  if (name.empty()) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) return false;
  }
  if (name[0] >= '0' && name[0] <= '9') return false;
  std::string value = line.substr(space + 1);
  return !value.empty();
}

TEST(MetricsRegistryTest, LabeledCounterExportsOneSeriesPerLabelSet) {
  auto& reg = obs::MetricsRegistry::Get();
  obs::Counter* a =
      reg.GetCounter("test_labeled_total", {{"level", "reduced_steps"}});
  obs::Counter* b =
      reg.GetCounter("test_labeled_total", {{"level", "fallback"}});
  EXPECT_NE(a, b);
  // Same name + same labels resolves to the same series object.
  EXPECT_EQ(a,
            reg.GetCounter("test_labeled_total", {{"level", "reduced_steps"}}));
  a->Increment(3);
  b->Increment(5);
  std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("test_labeled_total{level=\"reduced_steps\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_labeled_total{level=\"fallback\"} 5"),
            std::string::npos);
  // One TYPE comment for the base name, not one per series.
  size_t first = text.find("# TYPE test_labeled_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE test_labeled_total counter", first + 1),
            std::string::npos);
  // Label values are sanitized into the export-safe charset.
  reg.GetCounter("test_labeled_total", {{"level", "we\"ird value"}});
  EXPECT_NE(reg.ToPrometheusText().find(
                "test_labeled_total{level=\"we_ird_value\"}"),
            std::string::npos);
  std::string json = reg.ToJson();
  // JSON keys carry the series name with quotes escaped.
  EXPECT_NE(json.find("test_labeled_total{level=\\\"fallback\\\"}"),
            std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusExportIsWellFormed) {
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetCounter("test_export_counter")->Increment(7);
  reg.GetGauge("test export gauge!")->Set(1.5);  // name gets sanitized
  reg.GetHistogram("test_export_hist", {1.0, 2.0})->Observe(1.5);
  // The fault-tolerance series (DESIGN.md §5d) must export cleanly;
  // scripts/check.sh greps the dump for them.
  reg.GetCounter("dot_serving_degraded_total", {{"level", "reduced_steps"}});
  reg.GetCounter("dot_serving_degraded_total", {{"level", "cached_neighbor"}});
  reg.GetCounter("dot_serving_degraded_total", {{"level", "fallback"}});
  reg.GetCounter("dot_serving_retries_total");
  reg.GetCounter("dot_train_rollbacks_total", {{"stage", "stage1"}});
  reg.GetCounter("dot_train_skipped_steps_total", {{"stage", "stage1"}});
  std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("test_export_counter 7"), std::string::npos);
  EXPECT_NE(text.find("test_export_gauge_ 1.5"), std::string::npos);
  EXPECT_NE(text.find("test_export_hist_bucket{le=\"2\"}"), std::string::npos);
  EXPECT_NE(text.find("test_export_hist_count 1"), std::string::npos);
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_TRUE(IsValidPrometheusLine(line)) << "malformed line: " << line;
  }
  // scripts/check.sh greps this dump for malformed lines.
  if (const char* path = std::getenv("DOT_METRICS_TEXT")) {
    std::ofstream out(path);
    out << text;
  }
}

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  auto& reg = obs::MetricsRegistry::Get();
  obs::Counter* a = reg.GetCounter("test_same_counter");
  obs::Counter* b = reg.GetCounter("test_same_counter");
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistryTest, JsonExportContainsAllSections) {
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetCounter("test_json_counter")->Increment();
  reg.GetHistogram("test_json_hist")->Observe(123.0);
  std::string json = obs::MetricsToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test_json_counter\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Balanced braces (cheap structural sanity; no JSON parser in-tree).
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsRegistryTest, SnapshotAndResetValues) {
  auto& reg = obs::MetricsRegistry::Get();
  obs::Counter* c = reg.GetCounter("test_reset_counter");
  c->Increment(3);
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("test_reset_counter"), 3);
  reg.ResetValues();
  EXPECT_EQ(c->Value(), 0);
  // The registration survives the reset.
  EXPECT_EQ(reg.GetCounter("test_reset_counter"), c);
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(obs::TracingEnabled());
  { obs::TraceSpan span("ignored"); }
  EXPECT_TRUE(obs::TraceEvents().empty());
  EXPECT_EQ(obs::CurrentSpanId(), 0u);
}

TEST(TraceTest, SpanNestingOnOneThread) {
  obs::StartTracing();
  {
    obs::TraceSpan outer("outer");
    uint64_t outer_id = obs::CurrentSpanId();
    EXPECT_NE(outer_id, 0u);
    {
      obs::TraceSpan inner("inner", "\"step\": 3");
      EXPECT_NE(obs::CurrentSpanId(), outer_id);
    }
    EXPECT_EQ(obs::CurrentSpanId(), outer_id);
  }
  std::vector<obs::TraceEvent> events = obs::StopTracing();
  ASSERT_EQ(events.size(), 2u);  // inner closes first
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.parent_id, outer.id);
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  EXPECT_EQ(inner.args, "\"step\": 3");
}

TEST(TraceTest, NestingPropagatesAcrossThreadPoolTasks) {
  // Four chunks on a four-thread pool, each held until all four have
  // started: the caller runs one and Submit()ed helpers run the other
  // three, so spans from pool threads are checked too.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable all_started;
  int started = 0;
  obs::StartTracing();
  uint64_t outer_id = 0;
  {
    obs::TraceSpan outer("submit_site");
    outer_id = obs::CurrentSpanId();
    ParallelFor(
        &pool, 4,
        [&](int64_t, int64_t) {
          obs::TraceSpan task("pool_task");
          std::unique_lock<std::mutex> lock(mu);
          if (++started == 4) all_started.notify_all();
          all_started.wait_for(lock, std::chrono::seconds(5),
                               [&] { return started == 4; });
        },
        /*min_chunk=*/1);
  }
  std::vector<obs::TraceEvent> events = obs::StopTracing();
  int task_spans = 0;
  std::set<int> task_threads;
  for (const auto& e : events) {
    if (e.name == "pool_task") {
      ++task_spans;
      task_threads.insert(e.tid);
      EXPECT_EQ(e.parent_id, outer_id)
          << "pool task span must report the submitting span as parent";
    }
  }
  EXPECT_EQ(task_spans, 4);
  EXPECT_EQ(task_threads.size(), 4u);
}

TEST(TraceTest, ChromeJsonExportIsLoadable) {
  obs::StartTracing();
  {
    obs::TraceSpan a("alpha");
    obs::TraceSpan b("beta \"quoted\"");
  }
  std::vector<obs::TraceEvent> events = obs::StopTracing();
  std::string json = obs::ToChromeJson(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("beta \\\"quoted\\\""), std::string::npos);
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceTest, StopWritesFile) {
  std::string path = ::testing::TempDir() + "/dot_trace_test.json";
  obs::StartTracing(path);
  { obs::TraceSpan span("file_span"); }
  obs::StopTracing();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("file_span"), std::string::npos);
  std::remove(path.c_str());
}

TEST(OpProfilerTest, DisabledRecordsNothingAndKeepsResultsIdentical) {
  obs::OpProfiler::Enable(false);
  obs::OpProfiler::Reset();
  Rng rng(7);
  Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);
  Tensor w = Tensor::Randn({4, 3, 3, 3}, &rng);
  Tensor baseline = Conv2d(x, w, Tensor(), 1, 1);
  EXPECT_EQ(obs::OpProfiler::Get(obs::OpKind::kConv2d).calls, 0);

  obs::OpProfiler::Enable(true);
  Tensor profiled = Conv2d(x, w, Tensor(), 1, 1);
  obs::OpProfiler::Enable(false);
  ASSERT_EQ(baseline.numel(), profiled.numel());
  for (int64_t i = 0; i < baseline.numel(); ++i) {
    EXPECT_EQ(baseline.at(i), profiled.at(i)) << "profiling altered op output";
  }
}

TEST(OpProfilerTest, RecordsConvAndGemmCallsWithFlops) {
  obs::OpProfiler::Reset();
  obs::OpProfiler::Enable(true);
  Rng rng(13);
  Tensor x = Tensor::Randn({1, 2, 6, 6}, &rng);
  Tensor w = Tensor::Randn({3, 2, 3, 3}, &rng);
  Conv2d(x, w, Tensor(), 1, 1);
  Tensor a = Tensor::Randn({4, 5}, &rng);
  Tensor b = Tensor::Randn({5, 6}, &rng);
  MatMul(a, b);
  obs::OpProfiler::Enable(false);

  obs::OpStats conv = obs::OpProfiler::Get(obs::OpKind::kConv2d);
  EXPECT_EQ(conv.calls, 1);
  // 2 * OC * C*KH*KW * N*OH*OW = 2 * 3 * 18 * 36
  EXPECT_DOUBLE_EQ(conv.flops, 2.0 * 3 * 2 * 3 * 3 * 6 * 6);
  EXPECT_GT(conv.total_ns, 0);

  obs::OpStats gemm = obs::OpProfiler::Get(obs::OpKind::kGemm);
  EXPECT_EQ(gemm.calls, 1);
  EXPECT_DOUBLE_EQ(gemm.flops, 2.0 * 4 * 5 * 6);

  std::string json = obs::OpProfiler::ToJson();
  EXPECT_NE(json.find("\"conv2d\""), std::string::npos);
  EXPECT_NE(json.find("\"gemm\""), std::string::npos);
  EXPECT_NE(json.find("\"attention\""), std::string::npos);
  obs::OpProfiler::Reset();
}

TEST(DumpMetricsTest, WritesCombinedJsonFile) {
  obs::MetricsRegistry::Get().GetCounter("test_dump_counter")->Increment();
  std::string path = ::testing::TempDir() + "/dot_metrics_dump.json";
  ASSERT_TRUE(obs::DumpMetrics(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"test_dump_counter\""), std::string::npos);
  EXPECT_NE(content.find("\"ops\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(GaugeAddTest, ConcurrentAddsSumExactly) {
  obs::Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) {
        gauge.Add(1.0);
        gauge.Add(-1.0);
        gauge.Add(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Set() would lose concurrent updates; the CAS Add must not.
  EXPECT_DOUBLE_EQ(gauge.Value(), kThreads * static_cast<double>(kPerThread));
}

// --- Rolling-window histogram under a fake clock --------------------------

struct WindowFixture {
  double now_s = 1000.0;  // arbitrary nonzero origin
  obs::RollingHistogram window;
  explicit WindowFixture(std::vector<double> bounds = {10, 100, 1000},
                         double window_s = 60, double bucket_s = 5)
      : window(std::move(bounds), window_s, bucket_s) {
    window.SetClockForTesting([this] { return now_s; });
  }
};

TEST(RollingWindowTest, ObserveCountAndQuantiles) {
  WindowFixture f;
  for (int i = 0; i < 50; ++i) f.window.Observe(5.0);    // le=10
  for (int i = 0; i < 50; ++i) f.window.Observe(500.0);  // le=1000
  EXPECT_EQ(f.window.Count(), 100);
  EXPECT_LE(f.window.Quantile(0.25), 10.0);
  double p95 = f.window.Quantile(0.95);
  EXPECT_GT(p95, 100.0);
  EXPECT_LE(p95, 1000.0);
  obs::HistogramSnapshot snap = f.window.Snapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_DOUBLE_EQ(snap.sum, 50 * 5.0 + 50 * 500.0);
}

TEST(RollingWindowTest, SamplesExpireAfterTheWindow) {
  WindowFixture f;
  f.window.Observe(50.0);
  EXPECT_EQ(f.window.Count(), 1);
  f.now_s += 30;  // still inside the 60s window
  f.window.Observe(50.0);
  EXPECT_EQ(f.window.Count(), 2);
  f.now_s += 40;  // first sample now ~70s old; second ~40s
  EXPECT_EQ(f.window.Count(), 1);
  f.now_s += 70;  // everything aged out
  EXPECT_EQ(f.window.Count(), 0);
  EXPECT_DOUBLE_EQ(f.window.Quantile(0.95), 0.0);
}

TEST(RollingWindowTest, RingSlotsAreReusedAcrossManyRotations) {
  WindowFixture f;
  // One sample per 5s epoch for 10 minutes: far more epochs than slots, so
  // every slot is CAS-reclaimed many times over.
  for (int i = 0; i < 120; ++i) {
    f.window.Observe(50.0);
    f.now_s += 5;
  }
  // Live window holds the last 60-65s => 12 or 13 of the 5s epochs.
  int64_t live = f.window.Count();
  EXPECT_GE(live, 12);
  EXPECT_LE(live, 13);
}

TEST(RollingWindowTest, ResetDropsEverything) {
  WindowFixture f;
  for (int i = 0; i < 10; ++i) f.window.Observe(7.0);
  EXPECT_EQ(f.window.Count(), 10);
  f.window.Reset();
  EXPECT_EQ(f.window.Count(), 0);
  f.window.Observe(7.0);  // reusable after reset
  EXPECT_EQ(f.window.Count(), 1);
}

TEST(MetricsRegistryTest, WindowExportsPercentileGaugesAndJsonSection) {
  auto& reg = obs::MetricsRegistry::Get();
  obs::RollingHistogram* w = reg.GetWindow("test_window_latency_us");
  EXPECT_EQ(reg.GetWindow("test_window_latency_us"), w);
  w->Observe(42.0);
  std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("test_window_latency_us_window_p50"), std::string::npos);
  EXPECT_NE(text.find("test_window_latency_us_window_p95"), std::string::npos);
  EXPECT_NE(text.find("test_window_latency_us_window_p99"), std::string::npos);
  EXPECT_NE(text.find("test_window_latency_us_window_count"),
            std::string::npos);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
  EXPECT_NE(json.find("\"test_window_latency_us\""), std::string::npos);
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.windows.at("test_window_latency_us").count, 1);
}

// --- Slow-query ring ------------------------------------------------------

TEST(SlowQueryRingTest, KeepsTheMostRecentCapacityRecords) {
  obs::SlowQueryRing ring(4);
  for (int i = 0; i < 10; ++i) {
    obs::SlowQueryRecord rec;
    rec.request_id = static_cast<uint64_t>(i);
    rec.latency_ms = 10.0 * i;
    ring.Push(std::move(rec));
  }
  EXPECT_EQ(ring.total_pushed(), 10);
  std::vector<obs::SlowQueryRecord> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-first of the surviving tail: 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[i].request_id, static_cast<uint64_t>(6 + i));
  }
}

TEST(SlowQueryRingTest, ToJsonEscapesHostileNotes) {
  obs::SlowQueryRing ring(2);
  obs::SlowQueryRecord rec;
  rec.request_id = 1;
  rec.note = "evil\"note\\with\nnewline\tand\x01" "ctrl";
  ring.Push(std::move(rec));
  std::string json = ring.ToJson();
  EXPECT_NE(json.find("evil\\\"note\\\\with\\nnewline\\tand\\u0001" "ctrl"),
            std::string::npos);
  // No raw control byte from the note may survive into the JSON text
  // (structural '\n' between records is legitimate formatting).
  for (char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  }
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
  }
  EXPECT_EQ(depth, 0);
}

// --- JSON escaping of hostile span names (regression: the chrome-trace
// exporter and every /varz-style dump share obs::JsonEscape) --------------

TEST(TraceTest, HostileSpanNameSurvivesChromeJsonExport) {
  obs::StartTracing();
  {
    obs::TraceSpan span("evil\"name\\with\\\\stuff\nand\tctrl\x02" "end");
  }
  std::vector<obs::TraceEvent> events = obs::StopTracing();
  ASSERT_EQ(events.size(), 1u);
  std::string json = obs::ToChromeJson(events);
  // The escaped form must appear...
  EXPECT_NE(
      json.find("evil\\\"name\\\\with\\\\\\\\stuff\\nand\\tctrl\\u0002"
                "end"),
      std::string::npos);
  // ...and no raw quote-breaking or control bytes may remain (structural
  // '\n' between events is legitimate formatting).
  for (char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  }
  // Unescape and verify the exact original round-trips.
  std::string unescaped;
  size_t start = json.find("evil");
  ASSERT_NE(start, std::string::npos);
  for (size_t i = start; i < json.size();) {
    char c = json[i];
    if (c == '"') break;  // end of the name string literal
    if (c == '\\') {
      char n = json[i + 1];
      if (n == 'n') unescaped += '\n';
      else if (n == 't') unescaped += '\t';
      else if (n == 'u') {
        unescaped += static_cast<char>(
            std::stoi(json.substr(i + 2, 4), nullptr, 16));
        i += 6;
        continue;
      } else {
        unescaped += n;  // backslash-quote or backslash-backslash
      }
      i += 2;
      continue;
    }
    unescaped += c;
    ++i;
  }
  EXPECT_EQ(unescaped, "evil\"name\\with\\\\stuff\nand\tctrl\x02" "end");
}

TEST(TraceTest, ManualSpanRecordingStitchesUnderExplicitParent) {
  obs::StartTracing();
  uint64_t root = obs::NewSpanId();
  ASSERT_NE(root, 0u);
  int64_t t0 = obs::TraceNowUs();
  obs::RecordSpan("child", obs::NewSpanId(), root, t0, 5, "\"k\": 1");
  obs::RecordSpan("request", root, 0, t0, 10);
  std::vector<obs::TraceEvent> events = obs::StopTracing();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "child");
  EXPECT_EQ(events[0].parent_id, root);
  EXPECT_EQ(events[1].name, "request");
  EXPECT_EQ(events[1].id, root);
  EXPECT_EQ(events[1].parent_id, 0u);
}

TEST(TraceTest, ManualSpanApisAreInertWhenDisabled) {
  ASSERT_FALSE(obs::TracingEnabled());
  EXPECT_EQ(obs::NewSpanId(), 0u);
  EXPECT_EQ(obs::TraceNowUs(), 0);
  obs::RecordSpan("ignored", 1, 0, 0, 1);  // dropped silently
  EXPECT_TRUE(obs::TraceEvents().empty());
}

}  // namespace
}  // namespace dot
