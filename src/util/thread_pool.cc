#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

#include "obs/trace.h"

namespace dot {

namespace {

int DefaultPoolThreads() {
  // DOT_NUM_THREADS overrides the hardware concurrency — smaller to bound a
  // shared machine, larger to exercise the parallel partitioning paths on
  // boxes with few cores (the kernels are deterministic either way).
  if (const char* env = std::getenv("DOT_NUM_THREADS")) {
    int n = std::atoi(env);
    if (n >= 1) return std::min(n, 256);
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// Lock-free fast path + owner pointer so ResetGlobalForTesting can swap the
// pool. The unique_ptr static still joins the workers at process exit.
std::atomic<ThreadPool*> g_global_pool{nullptr};
std::mutex g_global_pool_mu;
std::unique_ptr<ThreadPool> g_global_pool_owner;

// True while this thread runs a chunk of a forked ParallelFor: a nested call
// then runs inline instead of forking again.
thread_local bool t_in_chunk = false;

// One ParallelFor call's chunks and its completion latch. The caller and
// its helper tasks claim chunk indices from `next` until none are left. A
// helper that starts after every chunk was claimed touches only the
// counters, which its shared_ptr keeps alive; `fn` is called only for a
// claimed chunk, and the caller cannot return before that chunk is done.
struct ChunkGroup {
  ChunkGroup(const std::function<void(int64_t, int64_t)>& fn, int64_t n,
             int64_t per, int64_t chunks)
      : fn(fn), n(n), per(per), chunks(chunks) {}

  void RunChunks() {
    bool outer = t_in_chunk;
    t_in_chunk = true;
    int64_t ran = 0;
    for (int64_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      int64_t begin = c * per;
      fn(begin, std::min(n, begin + per));
      ++ran;
    }
    t_in_chunk = outer;
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    done += ran;
    if (done == chunks) done_cv.notify_all();
  }

  const std::function<void(int64_t, int64_t)>& fn;
  const int64_t n, per, chunks;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  int64_t done = 0;  // chunks finished, guarded by mu
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Keep trace-span nesting intact across the pool: spans opened inside the
  // task report the submitting thread's innermost span as their parent.
  // Only pay for the wrapper while a recording is active.
  if (obs::TracingEnabled()) {
    uint64_t parent = obs::CurrentSpanId();
    task = [parent, inner = std::move(task)] {
      obs::InheritedParent scope(parent);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  task_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutdown with drained queue
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool* ThreadPool::Global() {
  ThreadPool* p = g_global_pool.load(std::memory_order_acquire);
  if (p != nullptr) return p;
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  p = g_global_pool.load(std::memory_order_relaxed);
  if (p == nullptr) {
    g_global_pool_owner.reset(new ThreadPool(DefaultPoolThreads()));
    p = g_global_pool_owner.get();
    g_global_pool.store(p, std::memory_order_release);
  }
  return p;
}

void ThreadPool::ResetGlobalForTesting(int num_threads) {
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  g_global_pool.store(nullptr, std::memory_order_release);
  g_global_pool_owner.reset();  // joins the old workers
  g_global_pool_owner.reset(
      new ThreadPool(num_threads > 0 ? num_threads : DefaultPoolThreads()));
  g_global_pool.store(g_global_pool_owner.get(), std::memory_order_release);
}

void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t, int64_t)>& fn,
                 int64_t min_chunk) {
  if (n <= 0) return;
  if (pool == nullptr || n <= min_chunk || pool->num_threads() == 1 ||
      t_in_chunk) {
    fn(0, n);
    return;
  }
  int64_t chunks = std::min<int64_t>(pool->num_threads(), (n + min_chunk - 1) / min_chunk);
  int64_t per = (n + chunks - 1) / chunks;
  chunks = (n + per - 1) / per;  // rounding `per` up can leave tail chunks empty
  auto group = std::make_shared<ChunkGroup>(fn, n, per, chunks);
  for (int64_t h = 1; h < chunks; ++h) {
    pool->Submit([group] { group->RunChunks(); });
  }
  group->RunChunks();
  std::unique_lock<std::mutex> lock(group->mu);
  group->done_cv.wait(lock, [&group] { return group->done == group->chunks; });
}

}  // namespace dot
