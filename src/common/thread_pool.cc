#include "common/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>

#include "common/check.h"

namespace ppfr {
namespace {

// Bumped in every forked child; a pool whose construction generation differs
// was inherited from the parent.
std::atomic<uint64_t> g_fork_generation{0};

void RegisterForkHandler() {
  static std::once_flag once;
  std::call_once(once, [] {
    pthread_atfork(nullptr, nullptr,
                   [] { g_fork_generation.fetch_add(1, std::memory_order_relaxed); });
  });
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) : state_(std::make_unique<State>()) {
  RegisterForkHandler();
  fork_generation_ = g_fork_generation.load(std::memory_order_relaxed);
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  num_threads_ = num_threads;
  // The calling thread executes chunks too, so only n-1 workers are needed.
  State* state = state_.get();
  state->workers.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    state->workers.emplace_back([state] { WorkerLoop(state); });
  }
}

ThreadPool::~ThreadPool() {
  if (Inherited()) {
    // The workers exist only in the parent. Joining them, taking a mutex one
    // of them may have held, or destroying a condition variable they were
    // waiting on would crash or hang, so the state is parked, still
    // reachable, for the rest of this process.
    static std::mutex abandoned_mu;
    static auto* abandoned = new std::vector<State*>();
    std::lock_guard<std::mutex> lock(abandoned_mu);
    abandoned->push_back(state_.release());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->shutdown = true;
  }
  state_->task_ready.notify_all();
  for (std::thread& t : state_->workers) t.join();
}

bool ThreadPool::Inherited() const {
  return g_fork_generation.load(std::memory_order_relaxed) != fork_generation_;
}

void ThreadPool::WorkerLoop(State* state) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(state->mu);
      state->task_ready.wait(lock,
                             [state] { return state->shutdown || !state->tasks.empty(); });
      if (state->tasks.empty()) return;  // shutdown with a drained queue
      task = std::move(state->tasks.front());
      state->tasks.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(state->mu);
      --state->pending;
    }
    state->task_done.notify_all();
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t min_grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t range = end - begin;
  if (range <= 0) return;
  min_grain = std::max<int64_t>(min_grain, 1);
  // Floor division so every chunk carries at least min_grain iterations (the
  // backends use min_grain as "below this, threading doesn't pay").
  const int64_t max_chunks = std::max<int64_t>(range / min_grain, 1);
  const int64_t num_chunks = std::min<int64_t>(num_threads_, max_chunks);
  State& s = *state_;
  if (num_chunks <= 1 || s.workers.empty() || Inherited()) {
    fn(begin, end);
    return;
  }

  const int64_t chunk = (range + num_chunks - 1) / num_chunks;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    PPFR_CHECK_EQ(s.pending, 0) << "ThreadPool::ParallelFor is not reentrant";
    for (int64_t c = 1; c < num_chunks; ++c) {
      const int64_t lo = begin + c * chunk;
      const int64_t hi = std::min(end, lo + chunk);
      if (lo >= hi) break;
      s.tasks.emplace([&fn, lo, hi] { fn(lo, hi); });
      ++s.pending;
    }
  }
  s.task_ready.notify_all();

  // The caller runs the first chunk, then helps drain the queue before
  // blocking, so a pool is never slower than the loop it replaces.
  fn(begin, std::min(end, begin + chunk));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(s.mu);
      if (!s.tasks.empty()) {
        task = std::move(s.tasks.front());
        s.tasks.pop();
      } else {
        s.task_done.wait(lock, [&s] { return s.pending == 0; });
        return;
      }
    }
    task();
    {
      std::lock_guard<std::mutex> lock(s.mu);
      --s.pending;
    }
    s.task_done.notify_all();
  }
}

}  // namespace ppfr
