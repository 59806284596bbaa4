// A small persistent thread pool with a deterministic parallel_for.
//
// parallel_for statically partitions [begin, end) into one contiguous chunk
// per worker, so the mapping from index to thread is a pure function of
// (range, thread count) — results of per-chunk reductions can be combined
// in a fixed order, keeping multi-threaded runs bit-identical.
//
// Nesting runs inline: a parallel_for issued from inside a pool task (a
// worker, or a caller while it runs its own chunk — of any pool) runs its
// whole range on the calling thread as chunk 0, and max_chunks() reads 1
// there. So an outer loop may split work across the pool (nn::Sequential
// runs row blocks this way) while the kernels inside each block stay on
// the block's thread, and no task ever waits on the pool it runs in.
//
// Concurrent top-level callers are serialized: each dispatching
// parallel_for holds the pool for its whole duration, so task slots are
// never shared. Inline runs (nested, or a range of one chunk) take no lock.
//
// Exception safety: a task that throws no longer terminates the process.
// The first exception (from any chunk, including the caller's own) is
// captured, the remaining chunks drain normally, and parallel_for rethrows
// it on the calling thread; the pool stays usable afterwards.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace adv {

class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs `fn(chunk_begin, chunk_end)` over a static partition of
  /// [begin, end). Blocks until all chunks finish. The calling thread
  /// executes one chunk itself. Called from inside a pool task, it runs
  /// fn(begin, end) inline instead (see top). If any chunk throws, the
  /// first exception is rethrown here after every other chunk has drained.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Like parallel_for but also passes the chunk index (0-based, dense,
  /// < max_chunks()). Lets callers accumulate into per-chunk scratch
  /// buffers and reduce them in chunk order — deterministic regardless of
  /// scheduling.
  void parallel_for_indexed(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t chunk, std::size_t, std::size_t)>&
          fn);

  /// Upper bound on the chunk count parallel_for_indexed will use from
  /// the calling thread: thread_count(), or 1 inside a pool task (where
  /// calls run inline). Chunks each run on their own thread, so per-thread
  /// (thread_local) scratch is never shared within one call.
  std::size_t max_chunks() const;

  /// Process-wide pool, created on first use with default_thread_count()
  /// threads. Thread count can be pinned with the ADV_THREADS environment
  /// variable (CI uses it to budget cores, and to check that results do
  /// not depend on the thread count, without code changes).
  static ThreadPool& global();

  /// Thread count the global pool is created with: the ADV_THREADS
  /// environment variable when set to a valid value (it takes precedence
  /// over the detected core count), else
  /// std::thread::hardware_concurrency(), else 1.
  static unsigned default_thread_count();

  /// The ADV_THREADS override alone: an integer in [1, 1024] when the
  /// variable is set and valid, 0 when unset or malformed (anything
  /// larger, including values out of range of long). Split out so tests
  /// can evaluate the policy without building a pool.
  static unsigned env_thread_override();

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t, std::size_t)>* fn =
        nullptr;
    std::size_t chunk = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    // steady_clock dispatch stamp (ns since epoch); 0 when obs is off.
    // Lets the worker report queue-wait time (pickup - dispatch).
    std::int64_t dispatch_ns = 0;
  };

  void worker_loop(std::size_t worker_index);
  void record_exception(std::exception_ptr e);

  std::vector<std::thread> workers_;
  std::mutex call_mutex_;  // held by each dispatching call (see top)
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<Task> tasks_;        // one slot per worker
  std::uint64_t generation_ = 0;   // bumped per parallel_for call
  std::size_t pending_ = 0;
  bool shutdown_ = false;
  // First exception thrown by any chunk of the in-flight parallel_for;
  // cleared (and rethrown) by the caller once all chunks drain.
  std::exception_ptr first_exception_;
};

}  // namespace adv
