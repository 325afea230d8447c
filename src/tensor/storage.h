// Pooled tensor storage: the allocation substrate behind TensorImpl.
//
// Every float buffer in the tensor stack (op outputs, im2col / norm
// scratch, parameters) is owned by a Storage object. Allocation goes
// through a process-wide, thread-safe, size-bucketed buffer pool: requests
// are rounded up to a power-of-two bucket, served from that bucket's free
// list when possible, and recycled back into it when the Storage dies
// (RAII — no explicit free anywhere in the stack). After one warmup pass of
// a fixed-shape workload (e.g. a reverse-diffusion step) every subsequent
// pass allocates exclusively from the free lists: zero fresh heap
// allocations in steady state, which is what makes the 1000-step sampling
// loop of Alg. 2 allocator-quiet.
//
// Knobs and safety:
//   - DOT_TENSOR_POOL=on|off (or storage::SetPoolEnabled) disables
//     recycling entirely; buffers are heap-allocated and freed eagerly.
//     Results are bitwise identical either way (determinism_test sweeps it).
//   - DOT_POOL_POISON=1 (or storage::SetPoisonEnabled) fills buffers with a
//     signaling NaN pattern when they enter the free list, so any op that
//     reads recycled-but-unwritten memory surfaces as NaNs instead of
//     silently reusing stale values (and recycling cannot mask a
//     use-after-free from ASan's perspective of freshly-written data).
//   - Pool traffic is observable: storage::GetPoolStats() plus the obs
//     gauges/counters dot_pool_{hits,misses,returns}_total,
//     dot_pool_bytes_live, dot_pool_bytes_pooled, dot_pool_high_water_bytes.

#ifndef DOT_TENSOR_STORAGE_H_
#define DOT_TENSOR_STORAGE_H_

#include <cstdint>
#include <memory>

namespace dot {

/// \brief A refcounted float buffer, allocated through the pool and
/// recycled into it on destruction. Never constructed directly — use
/// Allocate(). TensorImpl holds one via shared_ptr; zero-copy views share
/// the same Storage with a different offset/shape.
class Storage {
 public:
  /// Pool-aware allocation able to hold `n` floats (capacity() may be
  /// larger — the bucket size). n == 0 is allowed.
  static std::shared_ptr<Storage> Allocate(int64_t n);

  ~Storage();
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  float* data() { return data_; }
  const float* data() const { return data_; }
  /// Bucket capacity in floats (>= the requested size).
  int64_t capacity() const { return capacity_; }

 private:
  Storage(float* data, int64_t capacity) : data_(data), capacity_(capacity) {}

  float* data_ = nullptr;
  int64_t capacity_ = 0;
};

namespace storage {

/// True when recycling is active. Initialized once from DOT_TENSOR_POOL
/// (on|off|1|0, default on); SetPoolEnabled overrides at runtime.
bool PoolEnabled();
void SetPoolEnabled(bool enabled);

/// Poison-on-return (DOT_POOL_POISON=1, default off; see file comment).
bool PoisonEnabled();
void SetPoisonEnabled(bool enabled);

/// Point-in-time pool accounting. Counters are cumulative since process
/// start (or the last ResetPoolStats); byte gauges are current values.
struct PoolStats {
  int64_t hits = 0;      ///< allocations served from a free list
  int64_t misses = 0;    ///< allocations that had to touch the heap
  int64_t returns = 0;   ///< buffers recycled into a free list
  int64_t bytes_live = 0;      ///< bytes owned by live Storage objects
  int64_t bytes_pooled = 0;    ///< bytes parked in free lists
  int64_t high_water_bytes = 0;  ///< max bytes_live ever observed
};
PoolStats GetPoolStats();

/// Zeroes the hit/miss/return counters and re-bases the high-water mark to
/// the current live bytes. Byte gauges are preserved (they track real
/// memory). For tests and bench sections.
void ResetPoolStats();

/// Frees every buffer parked in the free lists. Live Storage objects are
/// untouched. Useful to re-measure warmup, or to release memory after a
/// large one-off workload.
void TrimPool();

/// The bucket capacity (floats) an allocation of `n` floats maps to:
/// max(kMinBucketFloats, next power of two >= n).
int64_t BucketFor(int64_t n);

/// \brief RAII pooled scratch buffer for op workspaces (im2col columns,
/// GEMM staging, normalization caches). A thin Storage handle that is not
/// a Tensor: no shape, no autograd, contents uninitialized.
class Scratch {
 public:
  explicit Scratch(int64_t n) : s_(Storage::Allocate(n)) {}
  float* data() { return s_->data(); }
  const float* data() const { return s_->data(); }

 private:
  std::shared_ptr<Storage> s_;
};

}  // namespace storage
}  // namespace dot

#endif  // DOT_TENSOR_STORAGE_H_
