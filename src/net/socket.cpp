#include "ppds/net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <span>

#include "ppds/common/ct.hpp"
#include "ppds/common/error.hpp"

namespace ppds::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what, int err) {
  throw ProtocolError(what + ": " + std::strerror(err) + " (errno " +
                      std::to_string(err) + ")");
}

/// poll(2) timeout for the remaining deadline budget: -1 blocks forever,
/// 0 returns immediately (already expired).
int poll_timeout_ms(const Deadline& deadline) {
  const auto left = deadline.remaining();
  if (!left.has_value()) return -1;
  // Cap to keep the int conversion safe; the loop re-polls.
  const auto ms = left->count();
  return ms > 3600'000 ? 3600'000 : static_cast<int>(ms);
}

/// Waits until \p fd is ready for \p events or the deadline expires.
/// Returns true when ready, false on deadline expiry; retries EINTR.
bool wait_ready(int fd, short events, const Deadline& deadline) {
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = ::poll(&pfd, 1, poll_timeout_ms(deadline));
    if (rc > 0) return true;  // readable/writable OR error/hangup: let the
                              // following read/write surface the condition
    if (rc == 0) {
      if (deadline.is_never()) continue;  // capped poll slice, not expiry
      if (deadline.expired()) return false;
      continue;
    }
    if (errno == EINTR) continue;  // signal delivery: recompute and retry
    throw_errno("socket poll failed", errno);
  }
}

void set_buffer_sizes(int fd, const SocketOptions& options) {
  if (options.send_buffer_bytes > 0) {
    const int v = options.send_buffer_bytes;
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
  }
  if (options.recv_buffer_bytes > 0) {
    const int v = options.recv_buffer_bytes;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &v, sizeof(v));
  }
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  // Frames are written atomically and each round trip is latency-bound;
  // Nagle would add 40 ms stalls per protocol round. Best-effort: fails
  // harmlessly on non-TCP sockets.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in make_inet_addr(const SocketAddress& address) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(address.port);
  const std::string host =
      address.host == "localhost" ? std::string("127.0.0.1") : address.host;
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    throw InvalidArgument("socket: unparseable IPv4 host '" + address.host +
                          "' (numeric dotted quad or 'localhost')");
  }
  return sa;
}

sockaddr_un make_unix_addr(const SocketAddress& address) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (address.path.empty() ||
      address.path.size() >= sizeof(sa.sun_path)) {
    throw InvalidArgument("socket: unix path empty or longer than " +
                          std::to_string(sizeof(sa.sun_path) - 1) +
                          " bytes: '" + address.path + "'");
  }
  std::memcpy(sa.sun_path, address.path.c_str(), address.path.size() + 1);
  return sa;
}

}  // namespace

// --- SocketAddress ----------------------------------------------------------

SocketAddress SocketAddress::tcp(std::string host, std::uint16_t port) {
  SocketAddress a;
  a.kind = Kind::kTcp;
  a.host = std::move(host);
  a.port = port;
  return a;
}

SocketAddress SocketAddress::unix_path(std::string path) {
  SocketAddress a;
  a.kind = Kind::kUnix;
  a.path = std::move(path);
  return a;
}

SocketAddress SocketAddress::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    return unix_path(spec.substr(5));
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      throw InvalidArgument("socket: expected tcp:<host>:<port>, got '" +
                            spec + "'");
    }
    const std::string port_text = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port > 65535) {
      throw InvalidArgument("socket: bad port '" + port_text + "' in '" +
                            spec + "'");
    }
    return tcp(rest.substr(0, colon), static_cast<std::uint16_t>(port));
  }
  throw InvalidArgument(
      "socket: address must be tcp:<host>:<port> or unix:<path>, got '" +
      spec + "'");
}

std::string SocketAddress::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

// --- SocketEndpoint ---------------------------------------------------------

SocketEndpoint::SocketEndpoint(int fd, SocketOptions options)
    : fd_(fd), options_(options) {
  if (fd_ < 0) {
    throw InvalidArgument("SocketEndpoint: negative file descriptor");
  }
  set_buffer_sizes(fd_, options_);
  set_tcp_nodelay(fd_);
}

SocketEndpoint::~SocketEndpoint() {
  wipe_staging();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SocketEndpoint::wipe_staging() {
  // Frame payloads carry OT pads and masked evaluations: a partially
  // reassembled frame abandoned by a timeout/close must not leave secret
  // bytes in freed heap pages.
  secure_wipe(std::span(staged_prelude_));
  secure_wipe(std::span(staged_payload_));
  staged_prelude_.clear();
  staged_payload_.clear();
  have_header_ = false;
  pending_payload_len_ = 0;
}

void SocketEndpoint::close() {
  require_live();
  if (closed_) return;
  closed_ = true;
  wipe_staging();
  // Both directions, like the in-process close(): the peer's blocked recv
  // wakes with EOF, our own reads return EOF, writes fail with EPIPE.
  (void)::shutdown(fd_, SHUT_RDWR);
}

void SocketEndpoint::deliver(detail::Frame&& frame) {
  if (closed_) {
    throw ProtocolError("send on closed channel");
  }
  if (wedged_) {
    throw ProtocolError(
        "socket send on a stream poisoned by an earlier partial write "
        "(backpressure abort mid-frame); open a fresh connection");
  }
  std::uint8_t prelude[kSocketPreludeBytes];
  store_frame_header(prelude, frame.header);
  store_le64(prelude + kFrameHeaderBytes, frame.payload.size());

  const std::size_t total = sizeof(prelude) + frame.payload.size();
  std::size_t written = 0;
  const auto start = std::chrono::steady_clock::now();
  const Deadline stall_deadline = Deadline::after(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          options_.send_stall_timeout));
  while (written < total) {
    if (!wait_ready(fd_, POLLOUT, stall_deadline)) {
      // The kernel send buffer is the bounded queue; a peer that stopped
      // draining trips this instead of wedging the worker forever.
      const auto stalled =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start);
      wedged_ = written > 0;
      throw BackpressureError(
          "socket send stalled: " + std::to_string(written) + " of " +
          std::to_string(total) + " frame bytes written, kernel send "
          "buffer (SO_SNDBUF" +
          (options_.send_buffer_bytes > 0
               ? " = " + std::to_string(options_.send_buffer_bytes) + " bytes"
               : std::string(" at kernel default")) +
          ") full for " + std::to_string(stalled.count()) +
          " ms (limit " +
          std::to_string(options_.send_stall_timeout.count()) +
          " ms); peer is not draining" +
          (written > 0 ? "; stream poisoned mid-frame" : ""));
    }
    iovec iov[2];
    int iov_count = 0;
    if (written < sizeof(prelude)) {
      iov[iov_count].iov_base = prelude + written;
      iov[iov_count].iov_len = sizeof(prelude) - written;
      ++iov_count;
    }
    const std::size_t payload_done =
        written > sizeof(prelude) ? written - sizeof(prelude) : 0;
    if (!frame.payload.empty() && payload_done < frame.payload.size()) {
      // const_cast: iovec's iov_base is void* even for gather-writes; the
      // kernel only reads from it.
      iov[iov_count].iov_base =
          const_cast<std::uint8_t*>(frame.payload.data()) + payload_done;
      iov[iov_count].iov_len = frame.payload.size() - payload_done;
      ++iov_count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iov_count);
    // MSG_DONTWAIT: a blocking-mode sendmsg on a stream socket parks until
    // the WHOLE buffer is queued, which would bypass the stall deadline
    // above; non-blocking partial writes keep the loop in charge.
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // re-poll
      wedged_ = written > 0;
      if (errno == EPIPE || errno == ECONNRESET) {
        throw ProtocolError("send on closed channel (peer gone: " +
                            std::string(std::strerror(errno)) + ")");
      }
      throw_errno("socket send failed", errno);
    }
    written += static_cast<std::size_t>(n);
  }
}

void SocketEndpoint::fill_staged(Bytes& staging, std::size_t target,
                                 const Deadline& deadline,
                                 std::chrono::steady_clock::time_point start,
                                 const char* what) {
  while (staging.size() < target) {
    if (!wait_ready(fd_, POLLIN, deadline)) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start);
      const auto budget =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline.at() - start);
      // Partial bytes stay staged: the read resumes if the peer wakes up.
      throw TimeoutError(
          "recv deadline exceeded after " + std::to_string(elapsed.count()) +
          " ms (budget at entry " + std::to_string(budget.count()) +
          " ms) while reading " + what + " (" +
          std::to_string(staging.size()) + " of " + std::to_string(target) +
          " bytes staged); peer silent");
    }
    const std::size_t at = staging.size();
    staging.resize(target);
    const ssize_t n = ::read(fd_, staging.data() + at, target - at);
    staging.resize(n > 0 ? at + static_cast<std::size_t>(n) : at);
    if (n > 0) continue;
    if (n == 0) {
      const bool mid_frame = at > 0 || have_header_;
      wipe_staging();
      throw ProtocolError(mid_frame
                              ? std::string("socket disconnected mid-frame "
                                            "while reading ") +
                                    what + "; channel closed by peer"
                              : "channel closed by peer");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    const int err = errno;
    wipe_staging();
    if (err == ECONNRESET) {
      throw ProtocolError("channel closed by peer (connection reset)");
    }
    throw_errno("socket recv failed", err);
  }
}

detail::Frame SocketEndpoint::fetch(const Deadline& deadline) {
  const auto start = std::chrono::steady_clock::now();
  if (!have_header_) {
    fill_staged(staged_prelude_, kSocketPreludeBytes, deadline,
                start, "frame prelude");
    pending_header_ = load_frame_header(staged_prelude_.data());
    pending_payload_len_ =
        load_le64(staged_prelude_.data() + kFrameHeaderBytes);
    secure_wipe(std::span(staged_prelude_));
    staged_prelude_.clear();
    if (pending_payload_len_ > options_.max_frame_bytes) {
      const std::uint64_t len = pending_payload_len_;
      wipe_staging();
      throw ProtocolError(
          "socket frame length " + std::to_string(len) +
          " exceeds the " + std::to_string(options_.max_frame_bytes) +
          "-byte cap: corrupt length prefix or misbehaving peer");
    }
    have_header_ = true;
    staged_payload_.reserve(pending_payload_len_);
  }
  fill_staged(staged_payload_, pending_payload_len_, deadline, start,
              "frame payload");
  detail::Frame frame;
  frame.header = pending_header_;
  frame.payload = std::move(staged_payload_);
  staged_payload_ = Bytes{};
  have_header_ = false;
  pending_payload_len_ = 0;
  return frame;
}

// --- SocketListener ---------------------------------------------------------

SocketListener::SocketListener(const SocketAddress& address, int backlog)
    : address_(address) {
  const int domain =
      address.kind == SocketAddress::Kind::kUnix ? AF_UNIX : AF_INET;
  fd_ = ::socket(domain, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket listener create failed", errno);
  if (address.kind == SocketAddress::Kind::kTcp) {
    const int one = 1;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa = make_inet_addr(address);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sa),  // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
               sizeof(sa)) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw_errno("socket bind to " + address.to_string() + " failed", err);
    }
    socklen_t len = sizeof(sa);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) == 0) {  // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
      address_.port = ntohs(sa.sin_port);  // resolve an ephemeral bind
    }
  } else {
    sockaddr_un sa = make_unix_addr(address);
    (void)::unlink(address.path.c_str());  // stale socket file from a crash
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sa),  // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
               sizeof(sa)) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw_errno("socket bind to " + address.to_string() + " failed", err);
    }
    owns_unix_path_ = true;
  }
  if (::listen(fd_, backlog) != 0) {
    const int err = errno;
    close();
    throw_errno("socket listen on " + address.to_string() + " failed", err);
  }
}

SocketListener::~SocketListener() { close(); }

void SocketListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (owns_unix_path_) {
    (void)::unlink(address_.path.c_str());
    owns_unix_path_ = false;
  }
}

std::unique_ptr<SocketEndpoint> SocketListener::accept(
    const Deadline& deadline, SocketOptions options) {
  if (fd_ < 0) {
    throw ProtocolError("accept on closed listener");
  }
  if (!wait_ready(fd_, POLLIN, deadline)) {
    throw TimeoutError("accept deadline exceeded on " + address_.to_string());
  }
  for (;;) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      return std::make_unique<SocketEndpoint>(conn, options);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      // The pending connection evaporated between poll and accept; wait for
      // the next one under the same deadline.
      if (!wait_ready(fd_, POLLIN, deadline)) {
        throw TimeoutError("accept deadline exceeded on " +
                           address_.to_string());
      }
      continue;
    }
    throw_errno("accept on " + address_.to_string() + " failed", errno);
  }
}

// --- connect / socketpair ---------------------------------------------------

std::unique_ptr<SocketEndpoint> socket_connect(const SocketAddress& address,
                                               const SocketOptions& options,
                                               const Deadline& deadline) {
  const int domain =
      address.kind == SocketAddress::Kind::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket create failed", errno);
  int rc = 0;
  do {
    if (address.kind == SocketAddress::Kind::kTcp) {
      sockaddr_in sa = make_inet_addr(address);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa),  // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
                     sizeof(sa));
    } else {
      sockaddr_un sa = make_unix_addr(address);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa),  // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
                     sizeof(sa));
    }
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int err = errno;
    ::close(fd);
    if (deadline.expired()) {
      throw TimeoutError("connect to " + address.to_string() +
                         " exceeded its deadline");
    }
    throw_errno("connect to " + address.to_string() + " failed", err);
  }
  return std::make_unique<SocketEndpoint>(fd, options);
}

std::pair<std::unique_ptr<SocketEndpoint>, std::unique_ptr<SocketEndpoint>>
make_socket_pair(const SocketOptions& options_a,
                 const SocketOptions& options_b) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw_errno("socketpair failed", errno);
  }
  return {std::make_unique<SocketEndpoint>(fds[0], options_a),
          std::make_unique<SocketEndpoint>(fds[1], options_b)};
}

}  // namespace ppds::net
