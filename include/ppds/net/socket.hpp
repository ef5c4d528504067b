#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "ppds/common/bytes.hpp"
#include "ppds/net/channel.hpp"

/// \file socket.hpp
/// Real-socket transport (TCP and unix-domain) behind the Endpoint
/// interface.
///
/// SocketEndpoint subclasses net::Endpoint through the protected transport
/// constructor and moves bytes through a connected file descriptor in its
/// deliver()/fetch() overrides. EVERYTHING above the hooks — FrameHeader
/// stamping and five-way validation, recv deadlines, payload/overhead
/// traffic accounting, transcript digests — is the PR 4 machinery reused
/// verbatim, so a protocol session over a socket carries bit-identical
/// payload bytes to the same session over the in-process channel
/// (docs/PROTOCOL.md §8).
///
/// Mapping of the in-process resilience semantics onto the kernel:
///  * recv deadlines -> poll(2) with the remaining budget before every read;
///    a deadline that expires MID-FRAME throws TimeoutError but keeps the
///    partial bytes staged, so the read resumes if the rest arrives before
///    the caller gives up (and session-level retry handles the case where
///    it never does);
///  * BackpressureError -> the kernel send buffer (SO_SNDBUF, configurable
///    via SocketOptions) is the bounded per-direction queue: a write that
///    stays blocked past send_stall_timeout fails with queue-depth
///    diagnostics instead of wedging the worker forever;
///  * close() -> shutdown(2) of both directions (TCP close semantics): the
///    peer's pending recv() wakes with a typed error, never a hang;
///  * a peer that vanishes mid-protocol surfaces as ProtocolError, which
///    fires the session layer's abort-and-wipe path (OtBundle::abort).
///
/// Staging buffers are SECRET-HOLDING: frames carry OT pads and masked
/// evaluations, so the reassembly buffer is secure_wipe()d when a frame is
/// abandoned and on teardown.
///
/// EINTR from poll()/read()/sendmsg() is always retried with the deadline
/// recomputed; writes use MSG_NOSIGNAL so a dead peer yields EPIPE ->
/// ProtocolError instead of killing the process with SIGPIPE.

namespace ppds::net {

/// Address of a listening or connecting socket. Text form (CLI flags,
/// diagnostics): "tcp:<host>:<port>" or "unix:<path>".
struct SocketAddress {
  enum class Kind { kTcp, kUnix };

  Kind kind = Kind::kTcp;
  std::string host = "127.0.0.1";  ///< numeric IPv4 or "localhost"
  std::uint16_t port = 0;          ///< 0 binds an ephemeral port
  std::string path;                ///< unix-domain socket path

  static SocketAddress tcp(std::string host, std::uint16_t port);
  static SocketAddress unix_path(std::string path);

  /// Parses "tcp:host:port" / "unix:/path"; throws InvalidArgument on
  /// anything else.
  static SocketAddress parse(const std::string& spec);

  std::string to_string() const;
};

/// Transport tunables of one socket endpoint.
struct SocketOptions {
  /// Longest a single frame write may sit against a full kernel send buffer
  /// before the send fails with BackpressureError. The kernel buffer is the
  /// bounded send queue; this is the "peer is not draining" trip wire.
  std::chrono::milliseconds send_stall_timeout{30000};
  /// Upper bound on an incoming frame's payload length; a corrupt length
  /// prefix fails fast instead of attempting a giant allocation.
  std::size_t max_frame_bytes = std::size_t{1} << 30;  // 1 GiB
  /// SO_SNDBUF / SO_RCVBUF in bytes; 0 keeps the kernel default. Small
  /// values make the bounded-queue semantics bite early (tests).
  int send_buffer_bytes = 0;
  int recv_buffer_bytes = 0;
};

/// One side of a duplex framed connection over a real socket. Single-thread
/// use, like every Endpoint; not movable (live file descriptor). Not final:
/// a test decorator may subclass it to perturb frames in deliver().
class SocketEndpoint : public Endpoint {
 public:
  /// Takes ownership of connected \p fd (closed on destruction).
  explicit SocketEndpoint(int fd, SocketOptions options = {});
  ~SocketEndpoint() override;

  SocketEndpoint(SocketEndpoint&&) = delete;

  /// Tears the connection down (both directions, TCP close semantics): the
  /// peer's pending recv() wakes with a typed error; later local sends and
  /// recvs throw ProtocolError. Idempotent.
  void close() override;

  int fd() const { return fd_; }

 protected:
  void deliver(detail::Frame&& frame) override;
  detail::Frame fetch(const Deadline& deadline) override;
  bool transport_live() const override { return fd_ >= 0; }

 private:
  /// Reads until \p staging holds \p target bytes, honoring \p deadline.
  void fill_staged(Bytes& staging, std::size_t target,
                   const Deadline& deadline,
                   std::chrono::steady_clock::time_point start,
                   const char* what);
  void wipe_staging();

  int fd_ = -1;
  SocketOptions options_;
  bool closed_ = false;
  /// A frame write that stalled partway poisons the byte stream (the peer
  /// will see a truncated frame); fail later sends loudly instead of
  /// interleaving garbage.
  bool wedged_ = false;
  /// Reassembly state: a partially received prelude/payload survives a
  /// TimeoutError so the read can resume (secret-holding; wiped on abandon).
  Bytes staged_prelude_;
  Bytes staged_payload_;
  bool have_header_ = false;
  FrameHeader pending_header_;
  std::uint64_t pending_payload_len_ = 0;
};

/// Serialized socket frame prelude: the 22-byte FrameHeader wire form plus
/// a u64 payload length (the in-process channel needs no length — it moves
/// whole buffers).
inline constexpr std::size_t kSocketPreludeBytes = kFrameHeaderBytes + 8;

/// Accepting socket bound to \p address. accept() honors a Deadline so an
/// acceptor loop can poll a stop flag; close() wakes a blocked accept.
class SocketListener {
 public:
  explicit SocketListener(const SocketAddress& address, int backlog = 128);
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Waits for one connection. Throws TimeoutError past the deadline and
  /// ProtocolError once the listener is closed.
  std::unique_ptr<SocketEndpoint> accept(const Deadline& deadline,
                                         SocketOptions options = {});

  void close();

  /// The bound address with the ephemeral port resolved (tcp) — what a
  /// client should connect to.
  const SocketAddress& address() const { return address_; }

 private:
  int fd_ = -1;
  SocketAddress address_;
  bool owns_unix_path_ = false;
};

/// Connects to a listening \p address. Throws TimeoutError if the
/// connection does not establish before \p deadline, ProtocolError when the
/// peer refuses.
std::unique_ptr<SocketEndpoint> socket_connect(
    const SocketAddress& address, const SocketOptions& options = {},
    const Deadline& deadline = {});

/// A connected AF_UNIX socketpair wrapped as two endpoints — the real-
/// kernel analogue of make_channel() (first = party A by convention).
std::pair<std::unique_ptr<SocketEndpoint>, std::unique_ptr<SocketEndpoint>>
make_socket_pair(const SocketOptions& options_a = {},
                 const SocketOptions& options_b = {});

}  // namespace ppds::net
