#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "ppds/common/ct.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/net/channel.hpp"

/// \file faulty.hpp
/// Deterministic fault injection for the chaos tests.
///
/// Faulty<Base> decorates an Endpoint (in-process) or a SocketEndpoint
/// (real fd) and perturbs its OUTGOING frames (decorate both ends to fault
/// both directions): drop, duplicate, reorder, bit-flip, truncate, delay,
/// and mid-protocol disconnect, each with an independent probability.
/// Every decision is drawn from a SplitMix64 counter stream over the
/// injector's seed, so a failing chaos run reproduces EXACTLY from
/// (FaultSpec, seed), on either transport.
///
/// Faults act BELOW the framing layer (the frame is already stamped and
/// checksummed), which is where a real network corrupts traffic; the peer's
/// frame validation then surfaces each fault as a typed ProtocolError:
/// bit-flips and truncations as checksum mismatches, drops as sequence gaps
/// or TimeoutError, duplicates as replays, reorders as out-of-order frames,
/// disconnects as closed-channel errors.

namespace ppds::test {

/// Per-direction fault probabilities (each in [0, 1], rolled per frame).
struct FaultSpec {
  double drop = 0.0;        ///< frame never delivered
  double duplicate = 0.0;   ///< frame delivered twice (same seq: a replay)
  double reorder = 0.0;     ///< frame held back behind its successor
  double bit_flip = 0.0;    ///< one payload bit inverted
  double truncate = 0.0;    ///< payload cut at a random length
  double delay = 0.0;       ///< delivery stalled by delay_ms (really slept)
  double disconnect = 0.0;  ///< link torn down mid-protocol
  std::chrono::milliseconds delay_ms{1};
};

/// \p Base's outgoing frames pass through the seeded fault decisions before
/// Base::deliver() sees them. The draw order per frame is fixed
/// (disconnect, drop, delay, bit-flip, truncate, duplicate, reorder), so a
/// given (FaultSpec, seed) perturbs the same frames in the same way on
/// every transport. Construct with the spec and seed, then \p Base's own
/// constructor arguments (a moved-in Endpoint, or a socket fd).
template <typename Base>
class Faulty final : public Base {
 public:
  template <typename... Args>
  Faulty(const FaultSpec& spec, std::uint64_t seed, Args&&... base_args)
      : Base(std::forward<Args>(base_args)...), spec_(spec), seed_(seed) {}

  ~Faulty() override {
    // A held-back frame can carry pads/masked evaluations; do not leave
    // them in freed heap pages.
    if (held_.has_value()) secure_wipe(std::span(held_->payload));
  }

  Faulty(const Faulty&) = delete;
  Faulty& operator=(const Faulty&) = delete;

 protected:
  void deliver(net::detail::Frame&& frame) override {
    if (roll(spec_.disconnect)) {
      this->close();  // the frame is lost with the link
      return;
    }
    if (roll(spec_.drop)) {
      return;
    }
    if (roll(spec_.delay)) {
      std::this_thread::sleep_for(spec_.delay_ms);
    }
    if (roll(spec_.bit_flip) && !frame.payload.empty()) {
      const std::uint64_t bit = draw() % (frame.payload.size() * 8);
      frame.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    if (roll(spec_.truncate) && !frame.payload.empty()) {
      frame.payload.resize(draw() % frame.payload.size());
    }
    const bool dup = roll(spec_.duplicate);
    if (!held_.has_value() && roll(spec_.reorder)) {
      held_ = std::move(frame);  // delivered behind the NEXT frame
      return;
    }
    Base::deliver(net::detail::Frame(frame));
    if (dup) {
      Base::deliver(net::detail::Frame(frame));
    }
    if (held_.has_value()) {
      Base::deliver(std::move(*held_));
      held_.reset();
    }
  }

 private:
  std::uint64_t draw() { return splitmix64(seed_, n_++); }

  bool roll(double probability) {
    if (probability <= 0.0) return false;
    const double u =
        static_cast<double>(draw() >> 11) * 0x1.0p-53;  // [0, 1)
    return u < probability;
  }

  FaultSpec spec_;
  std::uint64_t seed_;
  std::uint64_t n_ = 0;
  std::optional<net::detail::Frame> held_;
};

}  // namespace ppds::test
