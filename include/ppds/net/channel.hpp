#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "ppds/common/bytes.hpp"
#include "ppds/common/error.hpp"
#include "ppds/net/control.hpp"
#include "ppds/net/framing.hpp"

/// \file channel.hpp
/// In-process simulated network between two protocol parties.
///
/// Each party of a two-party protocol runs on its own thread and talks
/// through an Endpoint. The pair shares two blocking FIFO queues (one per
/// direction) plus traffic counters, so every experiment can report the
/// exact communication cost (bytes and message rounds) of a protocol run —
/// the distributed-systems measurement the paper's setting implies.
///
/// Resilience semantics (docs/PROTOCOL.md §6):
///  * every message travels inside a Frame (framing.hpp) whose session id,
///    sequence number, stage tag and checksum are validated on receipt;
///  * recv() honors a Deadline and throws TimeoutError instead of blocking
///    forever on a silent peer;
///  * queues are BOUNDED: a send that would exceed the byte cap throws
///    BackpressureError rather than buffering without limit;
///  * close() tears down BOTH directions (TCP close, not shutdown); already
///    queued messages still drain, then recv() throws ProtocolError, and
///    further sends throw immediately.
///
/// An optional LatencyModel charges simulated wire time per message; the
/// charge is accounted, not slept, so benches stay fast while still
/// reporting network cost. Wire time and TrafficStats::bytes cover payload
/// bytes only; frame-header bytes are tracked in overhead_bytes.

namespace ppds::net {

/// Simulated link characteristics. Cost per message =
/// latency_us + bytes * 8 / bandwidth_mbps microseconds.
struct LatencyModel {
  double latency_us = 0.0;
  double bandwidth_mbps = 0.0;  ///< 0 means infinite bandwidth.

  double cost_us(std::size_t bytes) const {
    double us = latency_us;
    if (bandwidth_mbps > 0.0) {
      us += static_cast<double>(bytes) * 8.0 / bandwidth_mbps;
    }
    return us;
  }
};

/// Traffic statistics of one endpoint (what this party SENT).
struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;           ///< payload bytes
  std::uint64_t overhead_bytes = 0;  ///< frame-header bytes
  double simulated_wire_us = 0.0;
};

/// Absolute receive deadline. Deadline{} (or never()) blocks indefinitely;
/// after(d) expires d from now.
class Deadline {
 public:
  Deadline() = default;

  static Deadline never() { return Deadline{}; }

  static Deadline after(std::chrono::milliseconds wait) {
    Deadline d;
    d.at_ = std::chrono::steady_clock::now() + wait;
    return d;
  }

  bool is_never() const { return !at_.has_value(); }
  std::chrono::steady_clock::time_point at() const { return *at_; }

  /// Milliseconds left before the deadline (clamped at zero once expired);
  /// nullopt for a never-expiring deadline. Socket transports feed this to
  /// poll(2); diagnostics report it as the remaining budget.
  std::optional<std::chrono::milliseconds> remaining() const {
    if (!at_.has_value()) return std::nullopt;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        *at_ - std::chrono::steady_clock::now());
    return left.count() > 0 ? left : std::chrono::milliseconds{0};
  }

  bool expired() const {
    return at_.has_value() && std::chrono::steady_clock::now() >= *at_;
  }

 private:
  std::optional<std::chrono::steady_clock::time_point> at_;
};

/// Tunables of a channel pair. The byte cap bounds each DIRECTION's queued
/// payload; one full OMPE request (tens of MB) plus headroom fits the
/// default comfortably, while a producer that outruns a stalled peer fails
/// fast instead of OOMing the process.
struct ChannelOptions {
  LatencyModel latency;
  std::size_t max_queue_bytes = std::size_t{1} << 30;  // 1 GiB
};

namespace detail {

/// One framed message in flight.
struct Frame {
  FrameHeader header;
  Bytes payload;
};

/// One direction of the duplex link: a bounded blocking queue of frames.
class Pipe {
 public:
  explicit Pipe(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  void push(Frame frame) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        throw ProtocolError("send on closed channel");
      }
      if (queued_bytes_ + frame.payload.size() > max_bytes_) {
        // Diagnosable from the log alone: the offending frame, the depth of
        // the undrained queue, and the configured cap.
        throw BackpressureError(
            "channel queue over byte cap: sending " +
            std::to_string(frame.payload.size()) + "-byte frame onto " +
            std::to_string(queue_.size()) + " queued frames (" +
            std::to_string(queued_bytes_) + " bytes) would exceed the " +
            std::to_string(max_bytes_) + "-byte limit; peer is not draining");
      }
      queued_bytes_ += frame.payload.size();
      queue_.push_back(std::move(frame));
    }
    cv_.notify_one();
  }

  Frame pop(const Deadline& deadline) {
    const auto start = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    const auto ready = [&] { return !queue_.empty() || closed_; };
    if (deadline.is_never()) {
      cv_.wait(lock, ready);
    } else if (!cv_.wait_until(lock, deadline.at(), ready)) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start);
      const auto budget =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline.at() - start);
      throw TimeoutError("recv deadline exceeded after " +
                         std::to_string(elapsed.count()) + " ms (budget at "
                         "entry " + std::to_string(budget.count()) +
                         " ms, queue empty); peer silent");
    }
    if (queue_.empty()) {
      throw ProtocolError("channel closed by peer");
    }
    Frame frame = std::move(queue_.front());
    queue_.pop_front();
    queued_bytes_ -= frame.payload.size();
    return frame;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Frame> queue_;
  std::size_t queued_bytes_ = 0;
  std::size_t max_bytes_;
  bool closed_ = false;
};

struct Link {
  explicit Link(const ChannelOptions& options)
      : a_to_b(options.max_queue_bytes),
        b_to_a(options.max_queue_bytes),
        latency(options.latency) {}

  Pipe a_to_b;
  Pipe b_to_a;
  LatencyModel latency;
};

}  // namespace detail

/// One side of a duplex channel. Thread-safe against its peer; a single
/// endpoint must only be used from one thread.
///
/// send() stamps every payload with a FrameHeader (stage, per-direction
/// sequence number, session id, checksum); recv() validates the peer's
/// header against this endpoint's own state and throws ProtocolError with a
/// diagnostic naming expected vs. received on any mismatch. Both parties
/// must therefore advance set_stage()/set_session_id() symmetrically.
///
/// The frame path runs through two protected virtual hooks — deliver() on
/// the way out, fetch() on the way in — so decorators (the test-side fault
/// injector, tests/support/faulty.hpp) perturb frames BELOW the framing
/// layer, where a real network corrupts traffic, and the validation above
/// catches them.
///
/// The same hooks make the TRANSPORT pluggable: a subclass constructed
/// through the protected default constructor owns no in-process link and
/// instead moves real bytes in deliver()/fetch() (net/socket.hpp). All the
/// framing, validation, deadline, stats and transcript machinery above the
/// hooks is shared verbatim between the in-process and the socket paths.
class Endpoint {
 public:
  Endpoint(std::shared_ptr<detail::Link> link, bool is_a)
      : link_(std::move(link)), is_a_(is_a) {}

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;
  /// Move transfers the link; the moved-from endpoint is inert (its
  /// destructor does nothing and any send/recv throws ProtocolError).
  Endpoint(Endpoint&&) = default;

  virtual ~Endpoint() {
    if (link_) {
      link_->a_to_b.close();
      link_->b_to_a.close();
    }
  }

  /// Sends one framed message to the peer. Throws BackpressureError when the
  /// peer's queue is over its byte cap and ProtocolError once the channel is
  /// closed.
  void send(Bytes payload) {
    require_live();
    const std::size_t payload_bytes = payload.size();
    detail::Frame frame;
    frame.header.stage = stage_;
    frame.header.seq = send_seq_;
    frame.header.session_id = session_id_;
    frame.header.checksum = frame_checksum(frame.header, payload);
    frame.payload = std::move(payload);
    if (transcript_enabled_) {
      sent_transcript_ = fold_transcript(sent_transcript_, frame.payload);
    }
    deliver(std::move(frame));
    // Committed only on success: a send refused by backpressure (or a
    // closed channel) consumes no sequence number, so the channel stays
    // usable once the peer drains the queue.
    ++send_seq_;
    stats_.messages += 1;
    stats_.bytes += payload_bytes;
    stats_.overhead_bytes += kFrameHeaderBytes;
    if (link_) {
      stats_.simulated_wire_us += link_->latency.cost_us(payload_bytes);
    }
  }

  /// Blocks until the peer's next message arrives or \p deadline expires
  /// (default: the deadline installed by set_recv_deadline, else forever).
  /// Throws TimeoutError past the deadline, ProtocolError if the channel is
  /// closed or the frame fails validation, and BusyError when the peer shed
  /// this connection with a control frame (net/control.hpp) — control
  /// frames are validated for version and checksum only and may arrive at
  /// ANY protocol point, including mid-handshake.
  Bytes recv(const Deadline& deadline) {
    require_live();
    detail::Frame frame = fetch(deadline);
    if (frame.header.stage == Stage::kControl) {
      validate_control(frame);
      throw BusyError(decode_busy(frame.payload));
    }
    validate(frame);
    ++recv_seq_;
    if (transcript_enabled_) {
      recv_transcript_ = fold_transcript(recv_transcript_, frame.payload);
    }
    return std::move(frame.payload);
  }

  Bytes recv() { return recv(recv_deadline_); }

  /// Closes the whole link (both directions). Messages already queued still
  /// drain; after that every recv() throws ProtocolError, as does any send.
  virtual void close() {
    require_live();
    link_->a_to_b.close();
    link_->b_to_a.close();
  }

  /// Advances the protocol stage stamped on outgoing frames AND expected on
  /// incoming ones. Both parties call this at the same protocol points.
  void set_stage(Stage stage) { stage_ = stage; }
  Stage stage() const { return stage_; }

  /// Adopts a session id after the handshake agreed on one (both sides).
  void set_session_id(std::uint64_t id) { session_id_ = id; }
  std::uint64_t session_id() const { return session_id_; }

  /// Default deadline applied by recv() without an explicit one.
  void set_recv_deadline(Deadline deadline) { recv_deadline_ = deadline; }
  const Deadline& recv_deadline() const { return recv_deadline_; }

  const TrafficStats& stats() const { return stats_; }
  void reset_stats() { stats_ = TrafficStats{}; }

  /// Opt-in payload-transcript digests: when enabled, every payload this
  /// endpoint sends (recvs) is folded — in order, headers excluded — into a
  /// 64-bit running digest. Two endpoints that exchanged bit-identical
  /// payload sequences report equal digests, which is how the tests prove
  /// the socket transport carries the SAME protocol transcript as the
  /// in-process channel. Off by default: folding costs a full pass over
  /// every payload (OMPE requests run to tens of MB).
  void enable_transcript(bool on) { transcript_enabled_ = on; }
  void reset_transcript() { sent_transcript_ = recv_transcript_ = 0; }
  std::uint64_t sent_transcript() const { return sent_transcript_; }
  std::uint64_t recv_transcript() const { return recv_transcript_; }

 protected:
  /// Transport-subclass constructor: no in-process link; the subclass moves
  /// real bytes in its deliver()/fetch()/close() overrides and reports its
  /// own liveness via transport_live().
  Endpoint() : link_(nullptr), is_a_(true) {}
  /// Hands a stamped frame to the outgoing pipe. Decorators override this to
  /// drop/duplicate/corrupt/delay traffic below the framing layer.
  virtual void deliver(detail::Frame&& frame) {
    outgoing().push(std::move(frame));
  }

  /// Takes the next frame off the incoming pipe (validation happens in
  /// recv() after this returns).
  virtual detail::Frame fetch(const Deadline& deadline) {
    return incoming().pop(deadline);
  }

  detail::Pipe& outgoing() { return is_a_ ? link_->a_to_b : link_->b_to_a; }
  detail::Pipe& incoming() { return is_a_ ? link_->b_to_a : link_->a_to_b; }

  /// Whether this endpoint still has a transport behind it. The in-process
  /// default is "the link was not moved away"; socket endpoints override.
  virtual bool transport_live() const { return link_ != nullptr; }

  void require_live() const {
    if (!transport_live()) {
      throw ProtocolError("use of moved-from or torn-down endpoint");
    }
  }

 private:
  /// Order-sensitive payload fold for the transcript digests: the payload
  /// bytes are checksummed under a fixed all-defaults header (so seq /
  /// stage / session differences between transports cannot leak in) and
  /// chained through SplitMix64.
  static std::uint64_t fold_transcript(std::uint64_t acc,
                                       const Bytes& payload) {
    return splitmix64(acc, frame_checksum(FrameHeader{}, payload));
  }

  /// Control frames bypass the session discipline (they may arrive at any
  /// protocol point, and their sender closes right after), but corruption
  /// must still fail loudly: version and checksum are checked exactly as
  /// for data frames. A control frame consumes NO receive sequence number.
  void validate_control(const detail::Frame& frame) const {
    const FrameHeader& h = frame.header;
    if (h.version != kFrameVersion) {
      throw ProtocolError("frame version mismatch (expected " +
                          std::to_string(kFrameVersion) + ", got " +
                          std::to_string(h.version) + ")");
    }
    if (h.checksum != frame_checksum(h, frame.payload)) {
      throw ProtocolError(
          "control frame checksum mismatch: corrupted or truncated");
    }
  }

  void validate(const detail::Frame& frame) const {
    const FrameHeader& h = frame.header;
    if (h.version != kFrameVersion) {
      throw ProtocolError("frame version mismatch (expected " +
                          std::to_string(kFrameVersion) + ", got " +
                          std::to_string(h.version) + ")");
    }
    if (h.checksum != frame_checksum(h, frame.payload)) {
      throw ProtocolError("frame checksum mismatch (seq " +
                          std::to_string(h.seq) + ", stage " +
                          stage_name(h.stage) + "): corrupted or truncated");
    }
    if (h.session_id != session_id_) {
      throw ProtocolError("cross-session message (expected session " +
                          std::to_string(session_id_) + ", got " +
                          std::to_string(h.session_id) + ")");
    }
    if (h.seq != recv_seq_) {
      throw ProtocolError(
          h.seq < recv_seq_
              ? "replayed message (expected seq " + std::to_string(recv_seq_) +
                    ", got " + std::to_string(h.seq) + ")"
              : "out-of-order or dropped message (expected seq " +
                    std::to_string(recv_seq_) + ", got " +
                    std::to_string(h.seq) + ")");
    }
    if (h.stage != stage_) {
      throw ProtocolError("protocol stage mismatch (expected " +
                          std::string(stage_name(stage_)) + ", got " +
                          stage_name(h.stage) + ")");
    }
  }

  std::shared_ptr<detail::Link> link_;
  bool is_a_;
  TrafficStats stats_;
  Stage stage_ = Stage::kNone;
  std::uint64_t session_id_ = 0;
  std::uint32_t send_seq_ = 0;
  std::uint32_t recv_seq_ = 0;
  Deadline recv_deadline_;
  bool transcript_enabled_ = false;
  std::uint64_t sent_transcript_ = 0;
  std::uint64_t recv_transcript_ = 0;
};

/// Creates a connected endpoint pair (first = party A / sender side by
/// convention, second = party B).
inline std::pair<Endpoint, Endpoint> make_channel(
    const ChannelOptions& options) {
  auto link = std::make_shared<detail::Link>(options);
  return {Endpoint(link, true), Endpoint(link, false)};
}

inline std::pair<Endpoint, Endpoint> make_channel(LatencyModel latency = {}) {
  ChannelOptions options;
  options.latency = latency;
  return make_channel(options);
}

/// Sends one busy control frame on \p channel (stamped at Stage::kControl
/// so the peer's recv surfaces it as BusyError wherever it is waiting) and
/// restores the endpoint's previous stage. The caller closes the channel
/// right after — a busy frame is a goodbye, not a conversation.
inline void send_busy(Endpoint& channel, const BusyFrame& busy) {
  const Stage before = channel.stage();
  channel.set_stage(Stage::kControl);
  try {
    channel.send(encode_busy(busy));
  } catch (...) {
    channel.set_stage(before);
    throw;
  }
  channel.set_stage(before);
}

}  // namespace ppds::net
