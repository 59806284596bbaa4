#include "serve/batcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/failpoint.hpp"
#include "obs/metrics.hpp"
#include "tensor/thread_pool.hpp"

namespace adv::serve {
namespace {

// Instrumentation handles (stable for the process lifetime; see
// obs/metrics.hpp — sites cache references in function-local statics).
obs::Counter& requests_counter() {
  static auto& c = obs::MetricsRegistry::global().counter("serve/requests");
  return c;
}
obs::Counter& ok_counter() {
  static auto& c =
      obs::MetricsRegistry::global().counter("serve/responses_ok");
  return c;
}
obs::Counter& error_counter() {
  static auto& c =
      obs::MetricsRegistry::global().counter("serve/responses_error");
  return c;
}
obs::Counter& batches_counter() {
  static auto& c = obs::MetricsRegistry::global().counter("serve/batches");
  return c;
}
obs::Counter& batch_rows_counter() {
  static auto& c = obs::MetricsRegistry::global().counter("serve/batch_rows");
  return c;
}
obs::Counter& model_load_failures_counter() {
  static auto& c =
      obs::MetricsRegistry::global().counter("serve/model_load_failures");
  return c;
}
obs::Counter& batch_failures_counter() {
  static auto& c =
      obs::MetricsRegistry::global().counter("serve/batch_failures");
  return c;
}
obs::Counter& shed_counter() {
  static auto& c = obs::MetricsRegistry::global().counter("serve/shed");
  return c;
}
obs::Counter& deadline_expired_counter() {
  static auto& c =
      obs::MetricsRegistry::global().counter("serve/deadline_expired");
  return c;
}
obs::Counter& watchdog_trips_counter() {
  static auto& c =
      obs::MetricsRegistry::global().counter("serve/watchdog_trips");
  return c;
}
obs::Gauge& queue_depth_gauge() {
  static auto& g = obs::MetricsRegistry::global().gauge("serve/queue_depth");
  return g;
}
obs::Timer& batch_forward_timer() {
  static auto& t =
      obs::MetricsRegistry::global().timer("serve/batch_forward");
  return t;
}

// With a pool of one thread every pass runs inline on its executor, so
// executors overlap; one core stays with the accept, handler and
// transport threads. A larger pool serializes concurrent passes on its
// dispatch lock, so it keeps one executor. hardware_concurrency() is 0
// when unknown: count one core.
std::size_t derived_executors() {
  if (ThreadPool::global().thread_count() != 1) return 1;
  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, cores - 1);
}

bool same_row_shape(const Tensor& a, const Tensor& b) {
  if (a.rank() != b.rank()) return false;
  for (std::size_t i = 1; i < a.rank(); ++i) {
    if (a.dim(i) != b.dim(i)) return false;
  }
  return true;
}

}  // namespace

// --- shared state outliving the MicroBatcher ----------------------------
//
// A watchdog-retired executor may still be wedged inside classify() (or a
// `stall` failpoint) when the MicroBatcher is destroyed. Everything such
// a thread can touch therefore lives behind shared_ptr: the ticket that
// owns its batch, the pipeline slot, and the drain counter it checks out
// of on exit. It never dereferences the MicroBatcher itself.

struct MicroBatcher::PipelineSlot {
  std::mutex mu;
  std::shared_ptr<const magnet::MagNetPipeline> pipeline;
  /// Held across a load, so executors starting their first batch
  /// together call the factory once; the others wait and share it.
  std::mutex load_mu;
};

struct MicroBatcher::BatchTicket {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Pending> group;
  bool failed = false;  // watchdog already resolved the promises
  bool done = false;    // executor finished (delivered or dropped)
};

struct MicroBatcher::DrainState {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t retired_live = 0;  // retired executors still running
};

/// One long-lived execution thread. Its executor loop assigns it a ticket
/// and waits (bounded by the watchdog); on a trip the thread is retire()d
/// — detached, counted in DrainState — and replaced. The thread keeps
/// itself alive via the self shared_ptr captured in its loop.
class MicroBatcher::Executor {
 public:
  static std::shared_ptr<Executor> spawn(
      PipelineFactory factory, std::shared_ptr<PipelineSlot> slot,
      std::shared_ptr<DrainState> drain) {
    auto ex = std::shared_ptr<Executor>(new Executor(
        std::move(factory), std::move(slot), std::move(drain)));
    ex->thread_ = std::thread([ex] { ex->loop(); });
    return ex;
  }

  ~Executor() {
    // Healthy path: shutdown() joined already. Retired path: detached.
    if (thread_.joinable()) {
      shutdown();
    }
  }

  void assign(std::shared_ptr<BatchTicket> ticket) {
    {
      std::lock_guard lk(mu_);
      ticket_ = std::move(ticket);
    }
    cv_.notify_all();
  }

  /// Watchdog trip: mark retired, register with the drain counter and
  /// detach. The loop exits after its current ticket (whenever the
  /// wedged call finally returns).
  void retire() {
    {
      std::lock_guard lk(mu_);
      retired_ = true;
    }
    {
      std::lock_guard lk(drain_->mu);
      ++drain_->retired_live;
    }
    cv_.notify_all();
    thread_.detach();
  }

  /// Healthy shutdown: no ticket in flight, thread joins promptly.
  void shutdown() {
    {
      std::lock_guard lk(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  Executor(PipelineFactory factory, std::shared_ptr<PipelineSlot> slot,
           std::shared_ptr<DrainState> drain)
      : factory_(std::move(factory)),
        slot_(std::move(slot)),
        drain_(std::move(drain)) {}

  void loop() {
    for (;;) {
      std::shared_ptr<BatchTicket> ticket;
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [&] { return quit_ || retired_ || ticket_ != nullptr; });
        if (!ticket_) break;  // quit or retired while idle
        ticket = std::move(ticket_);
      }
      execute_ticket(ticket, factory_, slot_);
      std::lock_guard lk(mu_);
      if (quit_ || retired_) break;
    }
    bool was_retired;
    {
      std::lock_guard lk(mu_);
      was_retired = retired_;
    }
    if (was_retired) {
      // Check out so MicroBatcher::stop can tell "unwound" from "still
      // wedged" within its drain grace.
      std::lock_guard lk(drain_->mu);
      --drain_->retired_live;
      drain_->cv.notify_all();
    }
  }

  PipelineFactory factory_;
  std::shared_ptr<PipelineSlot> slot_;
  std::shared_ptr<DrainState> drain_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<BatchTicket> ticket_;
  bool quit_ = false;
  bool retired_ = false;
  std::thread thread_;
};

MicroBatcher::MicroBatcher(PipelineFactory factory, BatchConfig cfg)
    : factory_(std::move(factory)),
      cfg_(cfg),
      slot_(std::make_shared<PipelineSlot>()),
      drain_(std::make_shared<DrainState>()) {
  if (!factory_) throw std::invalid_argument("MicroBatcher: null factory");
  if (cfg_.max_batch_rows == 0) {
    throw std::invalid_argument("MicroBatcher: max_batch_rows must be >= 1");
  }
  if (cfg_.max_queue_rows == 0) {
    throw std::invalid_argument("MicroBatcher: max_queue_rows must be >= 1");
  }
  if (cfg_.executors == 0) cfg_.executors = derived_executors();
  try {
    if (cfg_.watchdog_timeout.count() > 0) {
      for (std::size_t lane = 0; lane < cfg_.executors; ++lane) {
        executors_.push_back(Executor::spawn(factory_, slot_, drain_));
      }
    }
    for (std::size_t lane = 0; lane < cfg_.executors; ++lane) {
      loops_.emplace_back([this, lane] { run(lane); });
    }
  } catch (...) {
    // A thread failed to start: join the ones that did.
    stop();
    for (const auto& ex : executors_) ex->shutdown();
    throw;
  }
}

MicroBatcher::~MicroBatcher() { stop(); }

std::future<ServeResult> MicroBatcher::submit(
    Tensor rows, magnet::DefenseScheme scheme,
    std::chrono::milliseconds deadline) {
  std::promise<ServeResult> promise;
  std::future<ServeResult> future = promise.get_future();
  if (rows.rank() != 4 || rows.dim(0) == 0) {
    promise.set_value({false, ResultStatus::Error,
                       "submit: batch must be rank-4 with >= 1 row, got " +
                           rows.shape_string(),
                       {}});
    return future;
  }
  if (obs::enabled()) requests_counter().add(1);
  Pending p;
  p.row_count = rows.dim(0);
  p.rows = std::move(rows);
  p.scheme = scheme;
  p.promise = std::move(promise);
  p.enqueued = std::chrono::steady_clock::now();
  p.deadline = deadline.count() > 0
                   ? p.enqueued + deadline
                   : std::chrono::steady_clock::time_point::max();
  {
    std::lock_guard lk(mu_);
    if (stop_) {
      if (obs::enabled()) shed_counter().add(1);
      p.promise.set_value(
          {false, ResultStatus::Overloaded, "batcher stopped", {}});
      return future;
    }
    // Admission control: never let the queue grow past max_queue_rows.
    // An oversized lone request is still admitted into an EMPTY queue —
    // it runs as its own batch, same as the oversized-batch rule.
    if (!queue_.empty() &&
        queued_rows_locked() + p.row_count > cfg_.max_queue_rows) {
      if (obs::enabled()) shed_counter().add(1);
      p.promise.set_value({false, ResultStatus::Overloaded,
                           "overloaded: admission queue full (" +
                               std::to_string(cfg_.max_queue_rows) +
                               " rows)",
                           {}});
      return future;
    }
    queue_.push_back(std::move(p));
    if (obs::enabled()) {
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
    }
  }
  cv_.notify_all();
  return future;
}

void MicroBatcher::stop() {
  std::vector<std::thread> loops;
  {
    std::lock_guard lk(mu_);
    stop_ = true;
    loops.swap(loops_);
  }
  if (loops.empty()) return;  // stopped already
  cv_.notify_all();
  // Each loop finishes its in-flight batch; the first to see stop_ sheds
  // the queue.
  for (std::thread& t : loops) t.join();
  for (const auto& ex : executors_) ex->shutdown();
  executors_.clear();
  // Give watchdog-retired executors a bounded chance to unwind (a test
  // that disarmed its stall wants no thread left behind); a truly wedged
  // one only holds refcounted state, so walking away is safe.
  std::unique_lock lk(drain_->mu);
  drain_->cv.wait_for(lk, cfg_.drain_grace,
                      [&] { return drain_->retired_live == 0; });
}

std::size_t MicroBatcher::pending() const {
  std::lock_guard lk(mu_);
  return queue_.size();
}

bool MicroBatcher::pipeline_loaded() const {
  std::lock_guard lk(slot_->mu);
  return slot_->pipeline != nullptr;
}

std::size_t MicroBatcher::queued_rows_locked() const {
  std::size_t rows = 0;
  for (const Pending& p : queue_) rows += p.row_count;
  return rows;
}

void MicroBatcher::expire_locked(
    std::chrono::steady_clock::time_point now) {
  bool any = false;
  for (const Pending& p : queue_) {
    if (p.deadline <= now) {
      any = true;
      break;
    }
  }
  if (!any) return;  // common case: nothing is touched, let alone moved
  std::deque<Pending> keep;
  for (Pending& p : queue_) {
    if (p.deadline <= now) {
      if (obs::enabled()) deadline_expired_counter().add(1);
      p.promise.set_value({false, ResultStatus::DeadlineExceeded,
                           "deadline exceeded while queued", {}});
    } else {
      keep.push_back(std::move(p));
    }
  }
  queue_ = std::move(keep);
}

void MicroBatcher::shed_queue_locked(const char* reason) {
  if (queue_.empty()) return;
  if (obs::enabled()) shed_counter().add(queue_.size());
  for (Pending& p : queue_) {
    p.promise.set_value({false, ResultStatus::Overloaded, reason, {}});
  }
  queue_.clear();
}

std::vector<MicroBatcher::Pending> MicroBatcher::take_group_locked() {
  std::vector<Pending> group;
  std::deque<Pending> rest;
  std::size_t rows = 0;
  for (Pending& p : queue_) {
    const bool fits = rows < cfg_.max_batch_rows;
    const bool compatible =
        group.empty() || (p.scheme == group.front().scheme &&
                          same_row_shape(p.rows, group.front().rows));
    if (fits && compatible) {
      rows += p.row_count;
      group.push_back(std::move(p));
    } else {
      rest.push_back(std::move(p));
    }
  }
  queue_ = std::move(rest);
  return group;
}

void MicroBatcher::run(std::size_t lane) {
  std::unique_lock lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (stop_) {
      // Drain: anything not yet taken into a batch is shed, never served
      // — shutdown must not depend on the depth of the backlog.
      shed_queue_locked("draining: batcher stopped");
      return;
    }
    // Work exists. Hold the batch open until the deadline or until the
    // queue carries a full batch of rows, whichever comes first.
    const auto window =
        std::chrono::steady_clock::now() + cfg_.flush_deadline;
    while (!stop_ && queued_rows_locked() < cfg_.max_batch_rows) {
      if (cv_.wait_until(lk, window) == std::cv_status::timeout) break;
    }
    if (stop_) {
      shed_queue_locked("draining: batcher stopped");
      return;
    }
    expire_locked(std::chrono::steady_clock::now());
    std::vector<Pending> group = take_group_locked();
    if (obs::enabled()) {
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
    }
    // Empty when everything expired, or another loop took the work.
    if (group.empty()) continue;
    lk.unlock();
    dispatch(lane, std::move(group));
    lk.lock();
  }
}

void MicroBatcher::dispatch(std::size_t lane, std::vector<Pending> group) {
  auto ticket = std::make_shared<BatchTicket>();
  ticket->group = std::move(group);
  if (executors_.empty()) {
    // Watchdog off: execute inline on the executor loop — exactly the
    // pre-watchdog code path, so the identity tests cover it unchanged.
    execute_ticket(ticket, factory_, slot_);
    return;
  }
  std::shared_ptr<Executor>& executor = executors_[lane];
  executor->assign(ticket);
  std::unique_lock tlk(ticket->mu);
  if (ticket->cv.wait_for(tlk, cfg_.watchdog_timeout,
                          [&] { return ticket->done; })) {
    return;
  }
  // Watchdog trip: fail this batch's requests, then replace this loop's
  // wedged execution thread. The pipeline stays: the wedged pass leaves
  // no state in it.
  ticket->failed = true;
  const std::string msg =
      "watchdog: batch exceeded " +
      std::to_string(cfg_.watchdog_timeout.count()) + " ms";
  // Count before resolving the promises (here and in execute_ticket), so
  // a caller holding its result already sees the counters.
  if (obs::enabled()) {
    watchdog_trips_counter().add(1);
    batch_failures_counter().add(1);
    error_counter().add(ticket->group.size());
  }
  for (Pending& p : ticket->group) {
    p.promise.set_value({false, ResultStatus::Error, msg, {}});
  }
  tlk.unlock();
  executor->retire();
  executor = Executor::spawn(factory_, slot_, drain_);
}

std::shared_ptr<const magnet::MagNetPipeline> MicroBatcher::ensure_pipeline(
    const PipelineFactory& factory,
    const std::shared_ptr<PipelineSlot>& slot) {
  // Double duty: lazy first load AND reload after a failed load. The
  // factory is expected to route through the self-healing ModelZoo, so a
  // corrupt cached model quarantines and rebuilds here instead of
  // permanently wedging the daemon.
  const auto loaded = [&] {
    std::lock_guard lk(slot->mu);
    return slot->pipeline;
  };
  if (auto pipe = loaded()) return pipe;
  // One load at a time: an executor that waited here finds the pipeline
  // another one just loaded, or retries a load that failed.
  std::lock_guard load_lk(slot->load_mu);
  if (auto pipe = loaded()) return pipe;
  if (fault::check("serve.model_load") != fault::Action::None) {
    if (obs::enabled()) model_load_failures_counter().add(1);
    throw std::runtime_error("injected fault: serve.model_load");
  }
  std::shared_ptr<const magnet::MagNetPipeline> pipe;
  try {
    pipe = factory();
  } catch (...) {
    if (obs::enabled()) model_load_failures_counter().add(1);
    throw;
  }
  if (!pipe) {
    if (obs::enabled()) model_load_failures_counter().add(1);
    throw std::runtime_error("pipeline factory returned null");
  }
  std::lock_guard lk(slot->mu);
  slot->pipeline = pipe;
  return pipe;
}

void MicroBatcher::execute_ticket(
    const std::shared_ptr<BatchTicket>& ticket,
    const PipelineFactory& factory,
    const std::shared_ptr<PipelineSlot>& slot) {
  std::vector<Pending>& group = ticket->group;
  if (group.empty()) return;
  {
    // A watchdog may already have failed this ticket while the executor
    // was wedged upstream (e.g. a stalled model load that released late).
    std::lock_guard lk(ticket->mu);
    if (ticket->failed) {
      ticket->done = true;
      ticket->cv.notify_all();
      return;
    }
  }
  const auto extracted = std::chrono::steady_clock::now();
  std::size_t total_rows = 0;
  for (const Pending& p : group) total_rows += p.row_count;
  if (obs::enabled()) {
    batches_counter().add(1);
    batch_rows_counter().add(total_rows);
    static auto& wait_timer =
        obs::MetricsRegistry::global().timer("serve/queue_wait");
    for (const Pending& p : group) {
      wait_timer.record_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(extracted -
                                                               p.enqueued)
              .count()));
    }
  }
  try {
    const auto pipe = ensure_pipeline(factory, slot);
    if (fault::check("serve.batch_forward") != fault::Action::None) {
      throw std::runtime_error("injected fault: serve.batch_forward");
    }
    // Coalesce into one dense NCHW batch (a lone request's tensor is
    // forwarded as-is — no copy on the serial path).
    Tensor input;
    if (group.size() == 1) {
      input = std::move(group.front().rows);
    } else {
      std::vector<std::size_t> dims = group.front().rows.shape().dims();
      dims[0] = total_rows;
      input = Tensor(Shape(dims));
      std::size_t off = 0;
      for (Pending& p : group) {
        input.set_rows(off, p.rows);
        off += p.row_count;
        p.rows = Tensor();  // free the staged copy early
      }
    }
    magnet::DefenseOutcome out;
    {
      obs::ScopedTimer t(obs::enabled() ? &batch_forward_timer() : nullptr);
      out = pipe->classify(input, group.front().scheme);
    }
    std::lock_guard lk(ticket->mu);
    if (!ticket->failed) {
      if (obs::enabled()) ok_counter().add(group.size());
      if (group.size() == 1) {
        group.front().promise.set_value(
            {true, ResultStatus::Ok, {}, std::move(out)});
      } else {
        std::size_t off = 0;
        for (Pending& p : group) {
          p.promise.set_value({true, ResultStatus::Ok, {},
                               out.slice_rows(off, off + p.row_count)});
          off += p.row_count;
        }
      }
    }
    ticket->done = true;
    ticket->cv.notify_all();
  } catch (const std::exception& e) {
    // Degraded mode: this batch's requests get error responses; the
    // executing thread survives to serve the next batch. If the watchdog
    // got here first the promises are already resolved — drop silently.
    std::lock_guard lk(ticket->mu);
    if (!ticket->failed) {
      if (obs::enabled()) {
        batch_failures_counter().add(1);
        error_counter().add(group.size());
      }
      for (Pending& p : group) {
        p.promise.set_value({false, ResultStatus::Error, e.what(), {}});
      }
    }
    ticket->done = true;
    ticket->cv.notify_all();
  }
}

}  // namespace adv::serve
