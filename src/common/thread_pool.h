#ifndef PPFR_COMMON_THREAD_POOL_H_
#define PPFR_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ppfr {

// Fixed-size pool of worker threads with a fork-join ParallelFor. Workers are
// spawned once and reused across calls; ParallelFor blocks the caller until
// every chunk has run (the caller participates, so a 1-thread pool degrades
// to an inline loop with zero synchronisation).
//
// ParallelFor is not reentrant, and that covers concurrent external callers
// too: a second orchestration thread entering ParallelFor while another
// call's chunks are pending trips a CHECK. One pool serves one caller at a
// time (the la::Backend layer only parallelises leaf kernels, driven from a
// single orchestration thread).
//
// Fork safety: fork(2) copies a pool into the child without its workers, and
// possibly with its mutex held or its condition variables awaited by threads
// that no longer exist. A pthread_atfork child handler marks every pool built
// before the fork as inherited: in the child its ParallelFor runs inline and
// its destructor abandons the shared state instead of joining, locking or
// destroying anything the parent's threads owned.
class ThreadPool {
 public:
  // num_threads <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Splits [begin, end) into contiguous chunks of at least min_grain
  // iterations and invokes fn(chunk_begin, chunk_end) across the pool.
  // Chunks are disjoint, so fn may write to per-index state without locking.
  void ParallelFor(int64_t begin, int64_t end, int64_t min_grain,
                   const std::function<void(int64_t, int64_t)>& fn);

 private:
  // Everything the workers touch. Heap-allocated so a forked child can
  // abandon it whole (see the class comment).
  struct State {
    std::vector<std::thread> workers;
    std::mutex mu;
    std::condition_variable task_ready;
    std::condition_variable task_done;
    std::queue<std::function<void()>> tasks;
    int64_t pending = 0;  // queued + running tasks
    bool shutdown = false;
  };

  static void WorkerLoop(State* state);
  // True in a process forked after this pool was built.
  bool Inherited() const;

  int num_threads_ = 0;
  uint64_t fork_generation_ = 0;  // process fork generation at construction
  std::unique_ptr<State> state_;
};

}  // namespace ppfr

#endif  // PPFR_COMMON_THREAD_POOL_H_
