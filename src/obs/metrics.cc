#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/profile.h"
#include "obs/window.h"

namespace dot {
namespace obs {

namespace {

std::string SanitizeName(const std::string& name) {
  std::string out = name.empty() ? std::string("_") : name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string SanitizeLabelValue(const std::string& value) {
  std::string out = value;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':' || c == '.' ||
              c == '/' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// Prometheus-safe number rendering (no locale, no trailing garbage).
std::string Num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// JSON-safe number rendering: JSON has no literal for NaN/Inf, so
/// non-finite values are emitted as quoted strings ("NaN", "+Inf") instead
/// of producing an unparsable document.
std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "\"" + Num(v) + "\"";
  return Num(v);
}

void AtomicAddDouble(std::atomic<double>* a, double delta) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + delta,
                                   std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

uint32_t Counter::ShardIndex() {
  // Threads take sequential shard slots on first use; with kShards a power
  // of two the mask spreads any thread count across all shards.
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      bucket_counts_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  if (bounds_.size() + 1 != bucket_counts_.size()) {
    // Duplicates were dropped; reallocate to the deduplicated size.
    std::vector<std::atomic<int64_t>> fresh(bounds_.size() + 1);
    bucket_counts_.swap(fresh);
  }
}

void Histogram::Observe(double v) {
  // First bucket whose inclusive upper bound admits v; past-the-end is the
  // +inf overflow bucket.
  size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  bucket_counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, v);
}

namespace internal {

double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<int64_t>& counts, int64_t total,
                      double q) {
  if (total <= 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(total);
  int64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    int64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      double lo = i == 0 ? 0.0 : bounds[i - 1];
      // The overflow bucket has no finite upper edge; report its lower one.
      double hi = i < bounds.size() ? bounds[i] : lo;
      double frac = (rank - static_cast<double>(seen)) /
                    static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace internal

double Histogram::Quantile(double q) const {
  std::vector<int64_t> counts(bucket_counts_.size());
  int64_t total = 0;
  for (size_t i = 0; i < bucket_counts_.size(); ++i) {
    counts[i] = bucket_counts_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  return internal::BucketQuantile(bounds_, counts, total, q);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.count = Count();
  s.sum = Sum();
  s.p50 = Quantile(0.50);
  s.p95 = Quantile(0.95);
  s.p99 = Quantile(0.99);
  int64_t cum = 0;
  s.cumulative_buckets.reserve(bucket_counts_.size());
  for (size_t i = 0; i < bucket_counts_.size(); ++i) {
    cum += bucket_counts_[i].load(std::memory_order_relaxed);
    double bound = i < bounds_.size()
                       ? bounds_[i]
                       : std::numeric_limits<double>::infinity();
    s.cumulative_buckets.emplace_back(bound, cum);
  }
  return s;
}

void Histogram::Reset() {
  for (auto& b : bucket_counts_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::LatencyBoundsUs() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1e7; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  bounds.push_back(1e8);  // 100 s
  return bounds;
}

std::vector<double> Histogram::LinearBounds(double start, double step, int n) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(std::max(0, n)));
  for (int i = 0; i < n; ++i) bounds.push_back(start + step * i);
  return bounds;
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 int n) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(std::max(0, n)));
  double b = start;
  for (int i = 0; i < n; ++i, b *= factor) bounds.push_back(b);
  return bounds;
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

// Out of line: the maps hold unique_ptr<RollingHistogram>, which is only
// forward-declared in the header.
MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[SanitizeName(name)];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

namespace {

/// Canonical registry key of a labeled series: `name{k="v",...}` with the
/// same sanitization rules the text export relies on.
std::string LabeledKey(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  std::string key = SanitizeName(name);
  key += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) key += ',';
    key += SanitizeName(k) + "=\"" + SanitizeLabelValue(v) + "\"";
    first = false;
  }
  key += '}';
  return key;
}

}  // namespace

Counter* MetricsRegistry::GetCounter(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[LabeledKey(name, labels)];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[SanitizeName(name)];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[LabeledKey(name, labels)];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[SanitizeName(name)];
  if (!slot) {
    if (bounds.empty()) bounds = Histogram::LatencyBoundsUs();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return slot.get();
}

RollingHistogram* MetricsRegistry::GetWindow(const std::string& name,
                                             std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = windows_[SanitizeName(name)];
  if (!slot) {
    if (bounds.empty()) bounds = Histogram::LatencyBoundsUs();
    slot = std::make_unique<RollingHistogram>(std::move(bounds));
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->Snapshot();
  for (const auto& [name, w] : windows_) s.windows[name] = w->Snapshot();
  return s;
}

std::string MetricsRegistry::ToPrometheusText() const {
  MetricsSnapshot s = Snapshot();
  std::ostringstream out;
  std::string last_base;
  for (const auto& [name, v] : s.counters) {
    // Labeled series share their base name's TYPE comment (the map is
    // sorted, so all series of one base are adjacent).
    std::string base = name.substr(0, name.find('{'));
    if (base != last_base) {
      out << "# TYPE " << base << " counter\n";
      last_base = base;
    }
    out << name << " " << v << "\n";
  }
  last_base.clear();
  for (const auto& [name, v] : s.gauges) {
    // Labeled gauges share their base name's TYPE comment, as counters do.
    std::string base = name.substr(0, name.find('{'));
    if (base != last_base) {
      out << "# TYPE " << base << " gauge\n";
      last_base = base;
    }
    out << name << " " << Num(v) << "\n";
  }
  for (const auto& [name, h] : s.histograms) {
    out << "# TYPE " << name << " histogram\n";
    for (const auto& [bound, cum] : h.cumulative_buckets) {
      out << name << "_bucket{le=\"" << Num(bound) << "\"} " << cum << "\n";
    }
    out << name << "_sum " << Num(h.sum) << "\n";
    out << name << "_count " << h.count << "\n";
  }
  // Windowed percentiles export as plain gauges: a Prometheus histogram
  // carries cumulative-forever semantics, while these series answer "what
  // is the p95 right now" directly.
  for (const auto& [name, w] : s.windows) {
    const struct { const char* suffix; double v; } series[] = {
        {"_window_p50", w.p50},
        {"_window_p95", w.p95},
        {"_window_p99", w.p99},
        {"_window_count", static_cast<double>(w.count)},
    };
    for (const auto& sr : series) {
      out << "# TYPE " << name << sr.suffix << " gauge\n";
      out << name << sr.suffix << " " << Num(sr.v) << "\n";
    }
  }
  return out.str();
}

std::string MetricsRegistry::ToJson() const {
  MetricsSnapshot s = Snapshot();
  std::ostringstream out;
  // Every key goes through JsonEscape (sanitized names are already safe,
  // but labeled series carry `{key="value"}` quotes) and every double
  // through JsonNum (a non-finite gauge must not break the document).
  auto histogram_json = [&out](const HistogramSnapshot& h) {
    out << "{\"count\": " << h.count << ", \"sum\": " << JsonNum(h.sum)
        << ", \"p50\": " << JsonNum(h.p50) << ", \"p95\": " << JsonNum(h.p95)
        << ", \"p99\": " << JsonNum(h.p99) << ", \"buckets\": [";
    for (size_t i = 0; i < h.cumulative_buckets.size(); ++i) {
      const auto& [bound, cum] = h.cumulative_buckets[i];
      out << (i ? ", " : "") << "{\"le\": " << JsonNum(bound)
          << ", \"count\": " << cum << "}";
    }
    out << "]}";
  };
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : s.counters) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": " << v;
    first = false;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : s.gauges) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
        << "\": " << JsonNum(v);
    first = false;
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": ";
    histogram_json(h);
    first = false;
  }
  out << "\n  },\n  \"windows\": {";
  first = true;
  for (const auto& [name, w] : s.windows) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": ";
    histogram_json(w);
    first = false;
  }
  out << "\n  }\n}";
  return out.str();
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  for (auto& [name, w] : windows_) w->Reset();
}

MetricsSnapshot SnapshotMetrics() { return MetricsRegistry::Get().Snapshot(); }
std::string MetricsToPrometheusText() {
  return MetricsRegistry::Get().ToPrometheusText();
}
std::string MetricsToJson() { return MetricsRegistry::Get().ToJson(); }

bool DumpMetrics(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  // One top-level object: the registry dump plus the op-profiler section,
  // so benches get the whole picture from one file.
  std::string registry = MetricsToJson();
  // Replace the final "\n}" with the ops section.
  if (registry.size() >= 2 && registry.back() == '}') {
    registry.resize(registry.size() - 1);
    registry += ",\n  \"ops\": " + OpProfiler::ToJson() + "\n}";
  }
  out << registry << "\n";
  return static_cast<bool>(out);
}

}  // namespace obs
}  // namespace dot
