// Fixed-size thread pool with a fork-join ParallelFor. The tensor kernels
// (conv/im2col, GEMM) split single ops over it, and the diffusion samplers
// split a batch into slices that each run their whole reverse trajectory as
// one chunk. Many callers share the process-wide pool at once: the serving
// wave (one sample-parallel pass for every shard it spans), and a fine-tune
// round beside it.

#ifndef DOT_UTIL_THREAD_POOL_H_
#define DOT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dot {

/// \brief A minimal fixed-size worker pool.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);
  /// Runs the tasks still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. The pool does not track completion:
  /// a caller that must wait for its tasks brings its own latch (see
  /// ParallelFor).
  void Submit(std::function<void()> task);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Process-wide pool sized to the hardware concurrency, or to the
  /// DOT_NUM_THREADS environment variable when set (clamped to [1, 256]).
  static ThreadPool* Global();

  /// Replaces the global pool with one of `num_threads` workers (<= 0 picks
  /// the default sizing again). For tests that sweep thread counts — e.g.
  /// the determinism suite proving kernels are partition-invariant. Not safe
  /// while other threads are using the pool.
  static void ResetGlobalForTesting(int num_threads = 0);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;  // signals workers
  bool shutdown_ = false;
};

/// \brief Splits [0, n) into at most `pool->num_threads()` contiguous chunks
/// of at least `min_chunk` indices and runs `fn(begin, end)` once per chunk.
///
/// Fork-join: with two or more chunks, the caller claims and runs chunks
/// itself, helped by up to num_threads - 1 pool tasks, and returns once
/// every chunk of *this call* has finished. It never waits for other
/// callers' work, so concurrent callers do not convoy on each other. A
/// ParallelFor issued from inside such a chunk runs inline (one `fn(0, n)`
/// on the calling thread). So does a call with a single chunk (n <=
/// min_chunk, or a null or one-thread pool), but its body is not a chunk:
/// calls nested in it may still fork. `fn` must therefore give the same
/// result for any partition of [0, n).
void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t, int64_t)>& fn,
                 int64_t min_chunk = 1024);

}  // namespace dot

#endif  // DOT_UTIL_THREAD_POOL_H_
