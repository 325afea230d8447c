// Tensor storage: the allocation substrate behind TensorImpl.
//
// Every float buffer in the tensor stack (op outputs, im2col / norm
// scratch, parameters) is owned by a Storage object: one std::malloc of
// exactly the requested number of floats, freed when the last handle dies
// (RAII — no explicit free anywhere in the stack). The Storage and its
// shared_ptr control block are one std::make_shared block, so an
// allocation costs two heap calls.
//
// Buffers carry malloc's alignment (16 bytes), not a cache line's: the
// GEMM packs its operands into its own 64-byte aligned panels, and every
// SIMD load and store in the tensor kernels is unaligned. DESIGN.md §5f
// has the measurements against a size-bucketed, 64-byte aligned pool.
//
// Live bytes are observable: storage::GetStats() plus the obs gauges
// dot_pool_bytes_live and dot_pool_high_water_bytes.

#ifndef DOT_TENSOR_STORAGE_H_
#define DOT_TENSOR_STORAGE_H_

#include <cstdint>
#include <memory>

namespace dot {

/// \brief A refcounted float buffer of a fixed size. Constructed only by
/// Allocate(). TensorImpl holds one via shared_ptr; zero-copy views share
/// the same Storage with a different offset/shape.
class Storage {
  // Lets make_shared call the public constructor while nothing outside
  // Allocate() can name the argument it needs.
  struct Key {
    explicit Key() = default;
  };

 public:
  /// An uninitialized buffer of exactly `n` floats. n == 0 is allowed;
  /// n < 0 and allocation failure die.
  static std::shared_ptr<Storage> Allocate(int64_t n);

  Storage(Key, int64_t n);
  ~Storage();
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  float* data() { return data_; }
  const float* data() const { return data_; }

 private:
  float* data_ = nullptr;
  int64_t numel_ = 0;
};

namespace storage {

/// Bytes owned by live Storage objects, now and at their peak since
/// process start.
struct Stats {
  int64_t bytes_live = 0;
  int64_t high_water_bytes = 0;
};
Stats GetStats();

/// \brief RAII scratch buffer for op workspaces (im2col columns, GEMM
/// staging). A thin Storage handle that is not a Tensor: no shape, no
/// autograd, contents uninitialized.
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
