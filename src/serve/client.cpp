#include "serve/client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "obs/metrics.hpp"

namespace adv::serve {
namespace {

sockaddr_un make_addr(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string s = path.string();
  if (s.size() >= sizeof(addr.sun_path)) {
    throw ConnectError("socket path too long: " + s);
  }
  std::memcpy(addr.sun_path, s.c_str(), s.size() + 1);
  return addr;
}

void set_io_timeout(int fd, int optname, std::chrono::milliseconds t) {
  if (t.count() <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(t.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((t.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv));
}

/// Connect with an optional bound: non-blocking connect, poll for
/// writability, then check SO_ERROR. A refused/missing socket throws
/// ConnectError (guaranteed pre-send, so always retry-safe); an elapsed
/// connect_timeout throws TimeoutError.
int connect_unix(const std::filesystem::path& path, const ClientConfig& cfg) {
  const sockaddr_un addr = make_addr(path);
  const std::string s = path.string();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw IoError(std::string("socket: ") + std::strerror(errno));
  }
  const bool bounded = cfg.connect_timeout.count() > 0;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (bounded) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0 && bounded && (errno == EINPROGRESS || errno == EAGAIN)) {
    pollfd pfd{fd, POLLOUT, 0};
    const int pr = ::poll(
        &pfd, 1, static_cast<int>(cfg.connect_timeout.count()));
    if (pr == 0) {
      ::close(fd);
      throw TimeoutError("connect " + s + ": timed out");
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (pr < 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) < 0 ||
        soerr != 0) {
      const int e = pr < 0 ? errno : soerr;
      ::close(fd);
      throw ConnectError("connect " + s + ": " + std::strerror(e));
    }
  } else if (rc < 0) {
    const int e = errno;
    ::close(fd);
    throw ConnectError("connect " + s + ": " + std::strerror(e));
  }
  if (bounded) ::fcntl(fd, F_SETFL, flags);
  set_io_timeout(fd, SO_SNDTIMEO, cfg.send_timeout);
  set_io_timeout(fd, SO_RCVTIMEO, cfg.recv_timeout);
  return fd;
}

/// splitmix64 — tiny, seedable, stateless; good enough to decorrelate
/// backoff schedules across clients without any global RNG state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void count_retry() {
  if (obs::enabled()) {
    obs::MetricsRegistry::global().counter("serve/client_retries").add(1);
  }
}

}  // namespace

std::uint64_t RetryPolicy::backoff_ms(std::uint32_t attempt) const {
  const auto base = static_cast<std::uint64_t>(
      std::max<std::int64_t>(base_backoff.count(), 0));
  const auto cap_limit = static_cast<std::uint64_t>(
      std::max<std::int64_t>(max_backoff.count(), 0));
  if (base == 0 || cap_limit == 0) return 0;
  // Doubling cap, clamped before the shift can overflow.
  const std::uint32_t exp = std::min<std::uint32_t>(attempt, 40);
  std::uint64_t cap = base << exp;
  if (cap > cap_limit || (cap >> exp) != base) cap = cap_limit;
  // Equal jitter: [cap/2, cap], deterministic in (seed, attempt).
  const std::uint64_t half = cap / 2;
  return half + mix64(jitter_seed ^ (0x5EEDull + attempt)) % (cap - half + 1);
}

ServeClient::ServeClient(const std::filesystem::path& socket_path,
                         ClientConfig cfg)
    : path_(socket_path),
      cfg_(cfg),
      fd_(connect_unix(socket_path, cfg)) {}

ServeClient::~ServeClient() { disconnect(); }

ServeClient::ServeClient(ServeClient&& other) noexcept
    : path_(std::move(other.path_)),
      cfg_(other.cfg_),
      fd_(other.fd_),
      retries_(other.retries_) {
  other.fd_ = -1;
}

void ServeClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ClassifyResponse ServeClient::round_trip(
    const std::vector<std::uint8_t>& request_body) {
  if (fd_ < 0) fd_ = connect_unix(path_, cfg_);
  try {
    write_frame(fd_, kRequestMagic, request_body);
    std::vector<std::uint8_t> body;
    if (!read_frame(fd_, kResponseMagic, cfg_.max_body_bytes, body)) {
      throw RemoteClosedError("daemon closed the connection");
    }
    return decode_response(body);
  } catch (const IoError&) {
    // The stream is no longer at a frame boundary (short write, torn
    // read, late response still in flight) — never reuse it.
    disconnect();
    throw;
  }
}

ClassifyResponse ServeClient::request(
    const std::vector<std::uint8_t>& request_body) {
  const RetryPolicy& rp = cfg_.retry;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const bool last = attempt + 1 >= std::max<std::uint32_t>(rp.max_attempts, 1);
    try {
      ClassifyResponse r = round_trip(request_body);
      if (r.status != Status::Overloaded || last) return r;
      // Shed: the daemon spent nothing on us; backing off and retrying
      // is exactly what the Overloaded contract invites.
    } catch (const TimeoutError&) {
      if (last) throw;
    } catch (const ConnectError&) {
      if (last) throw;
    }
    // RemoteClosedError / plain IoError / ProtocolError propagate: the
    // request may have executed, so resending is not idempotent-safe.
    ++retries_;
    count_retry();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(rp.backoff_ms(attempt)));
  }
}

ClassifyResponse ServeClient::classify(const Tensor& rows,
                                       magnet::DefenseScheme scheme,
                                       std::uint32_t deadline_ms) {
  return request(encode_classify_request(scheme, rows, deadline_ms));
}

bool ServeClient::ping() {
  const ClassifyResponse r = request(encode_ping_request());
  return r.ok && r.type == MessageType::Ping;
}

RawConnection::RawConnection(const std::filesystem::path& socket_path)
    : fd_(connect_unix(socket_path, ClientConfig{})) {}

RawConnection::~RawConnection() { close(); }

void RawConnection::send_bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t w = ::send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(w);
  }
}

std::size_t RawConnection::recv_some(void* out, std::size_t len) {
  for (;;) {
    const ssize_t r = ::recv(fd_, out, len, 0);
    if (r >= 0) return static_cast<std::size_t>(r);
    if (errno == EINTR) continue;
    return 0;  // connection reset counts as closed for the tests
  }
}

bool RawConnection::wait_for_close(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::uint8_t sink[512];
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    const int rc = ::poll(&pfd, 1, std::max(ms, 1));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return true;  // socket error: treat as closed
    }
    if (rc == 0) return false;  // timeout
    if (recv_some(sink, sizeof(sink)) == 0) return true;
  }
}

void RawConnection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace adv::serve
