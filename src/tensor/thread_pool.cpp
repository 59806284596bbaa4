#include "tensor/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "obs/metrics.hpp"

namespace adv {
namespace {

// True while this thread runs a pool task: always on a worker, and on a
// caller for the duration of its own chunk. Nested calls run inline.
thread_local bool t_in_task = false;

// Largest ADV_THREADS value accepted; anything above is malformed.
constexpr long kMaxEnvThreads = 1024;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  tasks_.resize(n - 1);
  workers_.reserve(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_indexed(
      begin, end,
      [&fn](std::size_t /*chunk*/, std::size_t b, std::size_t e) {
        fn(b, e);
      });
}

void ThreadPool::parallel_for_indexed(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t nthreads = std::min(max_chunks(), total);
  if (nthreads <= 1) {
    fn(0, begin, end);  // nested, or one chunk: inline, no pool state
    return;
  }
  std::lock_guard call_lock(call_mutex_);
  const std::size_t chunk = (total + nthreads - 1) / nthreads;

  const bool observe = obs::enabled();
  const std::int64_t dispatch_ns = observe ? steady_now_ns() : 0;

  // Hand chunks 1..n-1 to workers; the caller runs chunk 0.
  std::size_t dispatched = 0;
  {
    std::lock_guard lock(mutex_);
    pending_ = 0;
    for (std::size_t t = 1; t < nthreads; ++t) {
      const std::size_t b = begin + t * chunk;
      const std::size_t e = std::min(end, b + chunk);
      if (b >= e) break;
      tasks_[t - 1] = Task{&fn, t, b, e, dispatch_ns};
      ++pending_;
    }
    dispatched = pending_;
    ++generation_;
  }
  cv_start_.notify_all();

  if (observe) {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& calls = reg.counter("pool/parallel_for_calls");
    static obs::Counter& tasks = reg.counter("pool/tasks_dispatched");
    calls.add(1);
    tasks.add(dispatched + 1);  // workers + the caller's own chunk
  }

  t_in_task = true;
  try {
    fn(0, begin, std::min(end, begin + chunk));
  } catch (...) {
    record_exception(std::current_exception());
  }
  t_in_task = false;

  std::unique_lock lock(mutex_);
  if (observe && pending_ != 0) {
    // Time the caller spends blocked on stragglers (load-imbalance signal).
    static obs::Timer& wait = obs::MetricsRegistry::global().timer(
        "pool/caller_wait");
    obs::ScopedTimer scope(&wait);
    cv_done_.wait(lock, [this] { return pending_ == 0; });
  } else {
    cv_done_.wait(lock, [this] { return pending_ == 0; });
  }
  const std::exception_ptr exc = std::exchange(first_exception_, nullptr);
  lock.unlock();
  if (exc) std::rethrow_exception(exc);
}

std::size_t ThreadPool::max_chunks() const {
  return t_in_task ? 1 : thread_count();
}

void ThreadPool::record_exception(std::exception_ptr e) {
  std::lock_guard lock(mutex_);
  if (!first_exception_) first_exception_ = std::move(e);
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_in_task = true;  // a worker runs nothing but tasks
  std::uint64_t seen_generation = 0;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, [&] {
        return shutdown_ || (generation_ != seen_generation &&
                             tasks_[worker_index].fn != nullptr);
      });
      if (shutdown_) return;
      seen_generation = generation_;
      task = tasks_[worker_index];
      tasks_[worker_index].fn = nullptr;
    }
    if (task.fn) {
      if (task.dispatch_ns != 0) {
        static obs::Timer& queue_wait =
            obs::MetricsRegistry::global().timer("pool/queue_wait");
        queue_wait.record_ns(
            static_cast<std::uint64_t>(
                std::max<std::int64_t>(0, steady_now_ns() - task.dispatch_ns)));
      }
      std::exception_ptr exc;
      try {
        (*task.fn)(task.chunk, task.begin, task.end);
      } catch (...) {
        exc = std::current_exception();
      }
      std::lock_guard lock(mutex_);
      if (exc && !first_exception_) first_exception_ = std::move(exc);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

unsigned ThreadPool::env_thread_override() {
  if (const char* env = std::getenv("ADV_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno != ERANGE && v > 0 &&
        v <= kMaxEnvThreads) {
      return static_cast<unsigned>(v);
    }
  }
  return 0;
}

unsigned ThreadPool::default_thread_count() {
  if (const unsigned v = env_thread_override()) return v;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

}  // namespace adv
