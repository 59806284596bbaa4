// ServeDaemon — long-lived defended-inference server over a unix stream
// socket.
//
// One accept thread hands each connection to its own handler thread;
// handlers parse length-prefixed request frames (serve/protocol.hpp) and
// block on the shared MicroBatcher, which coalesces everything in flight
// into dense forward batches. N executor loops run those batches
// concurrently over the one shared, stateless pipeline; N is derived
// from ADV_THREADS (the rule is in batcher.hpp). The model loads once,
// however many executors start together, and each executor has its own
// watchdog.
//
// Failure containment at the connection layer (the batcher has its own,
// see batcher.hpp):
//   * header-level garbage (bad magic/version, oversize length prefix)
//     gets a best-effort error frame and the connection is dropped —
//     framing cannot be resynchronized;
//   * a well-framed but undecodable body gets an error response and the
//     connection continues;
//   * a client that disconnects mid-frame or mid-response just loses its
//     connection thread; nothing reaches (or wedges) the batcher.
//
// Overload path (DESIGN.md §15): a request's deadline_ms rides the wire
// into MicroBatcher::submit; shed / deadline-expired / degraded results
// come back as distinct protocol statuses (Overloaded / DeadlineExceeded
// / Error). stop() drains in a fixed order — stop accepting, drain the
// batcher (finish in-flight, shed the queue) while handler fds are STILL
// open so clients receive their shed responses, then disconnect handlers
// and unlink the socket.
//
// Counters (adv::obs): serve/connections, serve/protocol_errors,
// serve/frames_rejected.
#pragma once

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/protocol.hpp"

namespace adv::serve {

struct ServeConfig {
  /// Unix socket path. Unlinked (if stale) on start and on stop.
  std::filesystem::path socket_path;
  BatchConfig batch;
  std::size_t max_body_bytes = kDefaultMaxBodyBytes;
  int listen_backlog = 64;
};

class ServeDaemon {
 public:
  /// The factory is invoked lazily by the batcher (first request), not at
  /// construction — a daemon binds its socket fast and degrades to error
  /// responses while models load or fail to.
  ServeDaemon(MicroBatcher::PipelineFactory factory, ServeConfig cfg);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Binds + listens + starts accepting. Throws std::runtime_error if the
  /// socket cannot be bound.
  void start();

  /// Stops accepting, shuts down open connections, drains the batcher.
  /// Idempotent; the destructor calls it.
  void stop();

  const std::filesystem::path& socket_path() const {
    return cfg_.socket_path;
  }
  MicroBatcher& batcher() { return batcher_; }

 private:
  /// Uses the fd it was started with; only start()/stop() touch listen_fd_.
  void accept_loop(int listen_fd);
  void handle_connection(int fd);

  ServeConfig cfg_;
  MicroBatcher batcher_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;  // live fds, for shutdown() on stop
};

}  // namespace adv::serve
