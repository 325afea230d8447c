#include "tensor/storage.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <vector>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dot {
namespace storage {
namespace {

// Smallest bucket: 64 floats = 256 bytes. Anything below rounds up to this,
// so tiny tensors (biases, cond vectors, scalars) all share one free list.
constexpr int64_t kMinBucketFloats = 64;
// Buffers are 64-byte aligned so pooled data behaves like the packed panels
// the SIMD GEMM allocates for itself.
constexpr size_t kAlignment = 64;
// Signaling pattern written over recycled buffers under poisoning: a quiet
// NaN, so a read of unwritten recycled memory propagates loudly.
constexpr uint32_t kPoisonBits = 0x7fc0d07eu;  // NaN payload spells "d07e"

int BucketIndex(int64_t capacity) {
  int idx = 0;
  while ((kMinBucketFloats << idx) < capacity) ++idx;
  return idx;
}

struct Pool {
  std::mutex mu;
  // free_lists[i] holds buffers of exactly (kMinBucketFloats << i) floats.
  static constexpr int kNumBuckets = 40;  // up to 64 << 39 floats — plenty
  std::vector<float*> free_lists[kNumBuckets];

  // Counters/gauges mirrored into the obs registry below; kept as local
  // atomics too so GetPoolStats() works even with metrics disabled.
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> misses{0};
  std::atomic<int64_t> returns{0};
  std::atomic<int64_t> bytes_live{0};
  std::atomic<int64_t> bytes_pooled{0};
  std::atomic<int64_t> high_water{0};

  ~Pool() = delete;  // process-lifetime singleton (never destroyed)
};

Pool& GetPool() {
  static Pool* pool = new Pool();
  return *pool;
}

struct ObsMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* returns;
  obs::Gauge* bytes_live;
  obs::Gauge* bytes_pooled;
  obs::Gauge* high_water;
};

ObsMetrics& GetObsMetrics() {
  static ObsMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Get();
    ObsMetrics out;
    out.hits = reg.GetCounter("dot_pool_hits_total");
    out.misses = reg.GetCounter("dot_pool_misses_total");
    out.returns = reg.GetCounter("dot_pool_returns_total");
    out.bytes_live = reg.GetGauge("dot_pool_bytes_live");
    out.bytes_pooled = reg.GetGauge("dot_pool_bytes_pooled");
    out.high_water = reg.GetGauge("dot_pool_high_water_bytes");
    return out;
  }();
  return m;
}

bool EnvFlag(const char* name, bool default_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return default_value;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
      std::strcmp(env, "false") == 0) {
    return false;
  }
  if (std::strcmp(env, "on") == 0 || std::strcmp(env, "1") == 0 ||
      std::strcmp(env, "true") == 0) {
    return true;
  }
  DOT_LOG_WARN << "unrecognized " << name << "='" << env << "' (want on|off)";
  return default_value;
}

std::atomic<bool> g_pool_enabled{EnvFlag("DOT_TENSOR_POOL", true)};
std::atomic<bool> g_poison_enabled{EnvFlag("DOT_POOL_POISON", false)};

float* RawAlloc(int64_t floats) {
  return static_cast<float*>(::operator new(
      static_cast<size_t>(floats) * sizeof(float), std::align_val_t(kAlignment)));
}

void RawFree(float* p) { ::operator delete(p, std::align_val_t(kAlignment)); }

void UpdateLive(Pool& pool, int64_t delta_bytes) {
  int64_t live = pool.bytes_live.fetch_add(delta_bytes,
                                           std::memory_order_relaxed) +
                 delta_bytes;
  auto& m = GetObsMetrics();
  m.bytes_live->Set(static_cast<double>(live));
  if (delta_bytes > 0) {
    int64_t hw = pool.high_water.load(std::memory_order_relaxed);
    while (live > hw && !pool.high_water.compare_exchange_weak(
                            hw, live, std::memory_order_relaxed)) {
    }
    m.high_water->Set(
        static_cast<double>(pool.high_water.load(std::memory_order_relaxed)));
  }
}

}  // namespace

bool PoolEnabled() { return g_pool_enabled.load(std::memory_order_relaxed); }
void SetPoolEnabled(bool enabled) {
  g_pool_enabled.store(enabled, std::memory_order_relaxed);
}

bool PoisonEnabled() { return g_poison_enabled.load(std::memory_order_relaxed); }
void SetPoisonEnabled(bool enabled) {
  g_poison_enabled.store(enabled, std::memory_order_relaxed);
}

int64_t BucketFor(int64_t n) {
  DOT_CHECK(n >= 0) << "negative allocation";
  int64_t cap = kMinBucketFloats;
  while (cap < n) cap <<= 1;
  return cap;
}

PoolStats GetPoolStats() {
  Pool& pool = GetPool();
  PoolStats s;
  s.hits = pool.hits.load(std::memory_order_relaxed);
  s.misses = pool.misses.load(std::memory_order_relaxed);
  s.returns = pool.returns.load(std::memory_order_relaxed);
  s.bytes_live = pool.bytes_live.load(std::memory_order_relaxed);
  s.bytes_pooled = pool.bytes_pooled.load(std::memory_order_relaxed);
  s.high_water_bytes = pool.high_water.load(std::memory_order_relaxed);
  return s;
}

void ResetPoolStats() {
  Pool& pool = GetPool();
  pool.hits.store(0, std::memory_order_relaxed);
  pool.misses.store(0, std::memory_order_relaxed);
  pool.returns.store(0, std::memory_order_relaxed);
  pool.high_water.store(pool.bytes_live.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
}

void TrimPool() {
  Pool& pool = GetPool();
  std::vector<float*> to_free;
  int64_t freed_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    for (int i = 0; i < Pool::kNumBuckets; ++i) {
      int64_t cap = kMinBucketFloats << i;
      for (float* p : pool.free_lists[i]) {
        to_free.push_back(p);
        freed_bytes += cap * static_cast<int64_t>(sizeof(float));
      }
      pool.free_lists[i].clear();
    }
  }
  for (float* p : to_free) RawFree(p);
  int64_t pooled = pool.bytes_pooled.fetch_sub(freed_bytes,
                                               std::memory_order_relaxed) -
                   freed_bytes;
  GetObsMetrics().bytes_pooled->Set(static_cast<double>(pooled));
}

}  // namespace storage

std::shared_ptr<Storage> Storage::Allocate(int64_t n) {
  using storage::GetObsMetrics;
  using storage::GetPool;
  int64_t cap = storage::BucketFor(n);
  int64_t bytes = cap * static_cast<int64_t>(sizeof(float));
  auto& pool = GetPool();
  float* data = nullptr;
  if (storage::PoolEnabled()) {
    int idx = storage::BucketIndex(cap);
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      auto& list = pool.free_lists[idx];
      if (!list.empty()) {
        data = list.back();
        list.pop_back();
      }
    }
    if (data != nullptr) {
      pool.hits.fetch_add(1, std::memory_order_relaxed);
      int64_t pooled =
          pool.bytes_pooled.fetch_sub(bytes, std::memory_order_relaxed) - bytes;
      auto& m = GetObsMetrics();
      m.hits->Increment();
      m.bytes_pooled->Set(static_cast<double>(pooled));
    } else {
      pool.misses.fetch_add(1, std::memory_order_relaxed);
      GetObsMetrics().misses->Increment();
      data = storage::RawAlloc(cap);
    }
  } else {
    data = storage::RawAlloc(cap);
  }
  storage::UpdateLive(pool, bytes);
  return std::shared_ptr<Storage>(new Storage(data, cap));
}

Storage::~Storage() {
  using storage::GetObsMetrics;
  using storage::GetPool;
  auto& pool = GetPool();
  int64_t bytes = capacity_ * static_cast<int64_t>(sizeof(float));
  storage::UpdateLive(pool, -bytes);
  if (storage::PoolEnabled()) {
    if (storage::PoisonEnabled()) {
      uint32_t bits = storage::kPoisonBits;
      float poison;
      std::memcpy(&poison, &bits, sizeof(poison));
      std::fill(data_, data_ + capacity_, poison);
    }
    int idx = storage::BucketIndex(capacity_);
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      pool.free_lists[idx].push_back(data_);
    }
    pool.returns.fetch_add(1, std::memory_order_relaxed);
    int64_t pooled =
        pool.bytes_pooled.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    auto& m = GetObsMetrics();
    m.returns->Increment();
    m.bytes_pooled->Set(static_cast<double>(pooled));
  } else {
    storage::RawFree(data_);
  }
}

}  // namespace dot
