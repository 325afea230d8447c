#include "tensor/storage.h"

#include <atomic>
#include <cstdlib>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dot {
namespace {

std::atomic<int64_t> g_bytes_live{0};
std::atomic<int64_t> g_high_water{0};

struct Gauges {
  obs::Gauge* bytes_live;
  obs::Gauge* high_water;
};

// The gauges keep the dot_pool_ names of the buffer pool they once
// described: perfbench's tensor.pool_high_water_mb reads
// dot_pool_high_water_bytes.
Gauges& GetGauges() {
  static Gauges g = [] {
    auto& reg = obs::MetricsRegistry::Get();
    return Gauges{reg.GetGauge("dot_pool_bytes_live"),
                  reg.GetGauge("dot_pool_high_water_bytes")};
  }();
  return g;
}

void UpdateLive(int64_t delta_bytes) {
  int64_t live =
      g_bytes_live.fetch_add(delta_bytes, std::memory_order_relaxed) +
      delta_bytes;
  Gauges& g = GetGauges();
  g.bytes_live->Set(static_cast<double>(live));
  if (delta_bytes > 0) {
    int64_t hw = g_high_water.load(std::memory_order_relaxed);
    while (live > hw && !g_high_water.compare_exchange_weak(
                            hw, live, std::memory_order_relaxed)) {
    }
    g.high_water->Set(
        static_cast<double>(g_high_water.load(std::memory_order_relaxed)));
  }
}

int64_t Bytes(int64_t floats) {
  return floats * static_cast<int64_t>(sizeof(float));
}

}  // namespace

std::shared_ptr<Storage> Storage::Allocate(int64_t n) {
  return std::make_shared<Storage>(Key{}, n);
}

Storage::Storage(Key, int64_t n) : numel_(n) {
  DOT_CHECK(n >= 0) << "negative allocation: " << n << " floats";
  data_ = static_cast<float*>(std::malloc(static_cast<size_t>(Bytes(n))));
  // malloc(0) may return null without failing.
  DOT_CHECK(data_ != nullptr || n == 0)
      << "out of memory allocating " << n << " floats";
  UpdateLive(Bytes(n));
}

Storage::~Storage() {
  std::free(data_);
  UpdateLive(-Bytes(numel_));
}

namespace storage {

Stats GetStats() {
  Stats s;
  s.bytes_live = g_bytes_live.load(std::memory_order_relaxed);
  s.high_water_bytes = g_high_water.load(std::memory_order_relaxed);
  return s;
}

}  // namespace storage
}  // namespace dot
