#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "ppds/common/bytes.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/common/secret_taint.hpp"
#include "ppds/crypto/group.hpp"
#include "ppds/net/channel.hpp"

/// \file ot.hpp
/// The oblivious-transfer stack of Section III-B, bottom-up:
///
///   1-out-of-2  — Naor-Pinkas over a DH group (semi-honest), run as one
///                 batched round trip of random-pad transfers
///                 (precompute_ot_{sender,receiver}).
///   1-out-of-n  — a direct slot: n random pads of which the receiver knows
///                 one; the online phase is one shift byte up and n
///                 one-time-pad ciphertexts down.
///   k-out-of-n  — k such slots (sufficient for the honest-but-curious model
///                 the paper assumes).
///
/// The 1-out-of-n slots come from a silent OT extension
/// (crypto/silent_ot.hpp) whose 128-column seed agreement is ONE batched
/// Naor-Pinkas round trip; every later slot is PRG + hash work. All
/// protocols speak over a net::Endpoint so every run has an exact, countable
/// wire footprint. Two engines implement the k-out-of-n interface:
///
///   BatchedOt* — the cryptographic instantiation (silent OT extension).
///   Loopback*  — a trusted-simulation engine that transfers the selected
///                messages directly. It provides NO privacy and exists so
///                large benches can isolate the algebraic OMPE cost from
///                public-key OT cost (the paper does not specify its OT
///                implementation; we report both regimes).

namespace ppds::crypto {

/// Sender half of a k-out-of-n OT engine.
class OtSender {
 public:
  virtual ~OtSender() = default;

  /// Transfers k of the n = messages.size() byte strings; which k is the
  /// receiver's secret. All messages must have equal length.
  virtual void send(net::Endpoint& channel,
                    std::span<const Bytes> messages, std::size_t k) = 0;
};

/// Receiver half of a k-out-of-n OT engine.
class OtReceiver {
 public:
  virtual ~OtReceiver() = default;

  /// Retrieves messages at the (strictly increasing) \p indices out of n.
  virtual std::vector<Bytes> receive(net::Endpoint& channel,
                                     std::span<const std::size_t> indices,
                                     std::size_t n,
                                     std::size_t message_len) = 0;
};

/// --- Naor-Pinkas 1-out-of-2 ------------------------------------------------

/// Naor-Pinkas OT sender over a DhGroup shared with the receiver (public
/// parameters). The silent engine's seed agreement runs its batched form,
/// precompute_ot_sender().
class NaorPinkasSender {
 public:
  NaorPinkasSender(const DhGroup& group, Rng& rng)
      : group_(group), rng_(rng) {}

  /// Single 1-out-of-2 OT of two equal-length messages.
  void send_1of2(net::Endpoint& channel, const Bytes& m0, const Bytes& m1);

  const DhGroup& group() const { return group_; }

 private:
  const DhGroup& group_;
  Rng& rng_;
};

/// Naor-Pinkas OT receiver.
class NaorPinkasReceiver {
 public:
  NaorPinkasReceiver(const DhGroup& group, Rng& rng)
      : group_(group), rng_(rng) {}

  Bytes receive_1of2(net::Endpoint& channel, PPDS_SECRET bool choice,
                     std::size_t message_len);

  const DhGroup& group() const { return group_; }

 private:
  const DhGroup& group_;
  Rng& rng_;
};

/// --- Loopback (trusted simulation) engine ----------------------------------

/// Benchmark-only sender: ships all n messages; the receiver-side object
/// picks locally. Wire cost equals n * len (an upper bound on any real OT),
/// privacy is NOT provided. Never use outside performance studies.
class LoopbackSender : public OtSender {
 public:
  void send(net::Endpoint& channel, std::span<const Bytes> messages,
            std::size_t k) override;
};

class LoopbackReceiver : public OtReceiver {
 public:
  std::vector<Bytes> receive(net::Endpoint& channel,
                             std::span<const std::size_t> indices,
                             std::size_t n, std::size_t message_len) override;
};

/// --- Random-pad OTs (Beaver) ------------------------------------------------
///
/// An OT run on random pads with a random choice moves every public-key
/// operation offline; the online phase of a transfer is then XORs and a
/// one-byte correction.
///
/// The batched base phase (Naor-Pinkas SODA'01 style): the sender reuses
/// one (C, r) pair across all N slots of a batch, ships `C || g^r` once,
/// the receiver answers with all N blinded public keys in one bundle, and
/// both sides derive the random pads from hashed DH shared secrets with a
/// per-slot domain-separation tag — one round trip and one full
/// exponentiation per slot instead of 3 messages and 6 exponentiations.
/// Fixed-base tables (group.hpp) serve every g^x, the sender's inverse
/// shares run through one Montgomery batch inversion, and the receiver
/// builds a per-batch table for g^r.

/// Random pads held by the sender of one 1-out-of-n slot, one per possible
/// choice index (Beaver correlated randomness — taint roots for the
/// analyzer). The slot's arity is pads.size().
struct PrecomputedSendSlot {
  PPDS_SECRET std::vector<Bytes> pads;
};

/// The receiver's half of a slot: its random choice in [0, arity) and the
/// matching pad. The arity itself is public protocol shape.
struct PrecomputedRecvSlot {
  PPDS_SECRET std::uint32_t choice = 0;
  PPDS_SECRET Bytes pad;
  std::uint32_t arity = 2;
};

/// Largest arity served by direct 1-of-n slots (the online correction shift
/// must fit one byte). The batched engines refuse larger transfers;
/// ompe::validate() keeps every OMPE round below it.
inline constexpr std::size_t kMaxDirectArity = 256;

// Silent-OT machinery (crypto/silent_ot.hpp) — kept behind forward
// declarations so the base OT header stays cycle-free.
class SilentPadSender;
class SilentPadReceiver;

/// Runs \p count 1-out-of-2 OTs of \p pad_len-byte random pads in ONE
/// channel round trip (the batched base phase above; pad_len <= 32).
/// Returns the sender-side slots; receiver-side slots come out of the
/// matching call on the other thread.
std::vector<PrecomputedSendSlot> precompute_ot_sender(
    net::Endpoint& channel, NaorPinkasSender& sender, std::size_t count,
    std::size_t pad_len, Rng& rng);

std::vector<PrecomputedRecvSlot> precompute_ot_receiver(
    net::Endpoint& channel, NaorPinkasReceiver& receiver, std::size_t count,
    std::size_t pad_len, Rng& rng);

/// Process-wide abort-and-wipe audit. Every BatchedOt{Sender,Receiver}::
/// abort() increments `aborts` and — when the post-wipe pool_wiped() scan
/// comes back clean — `wiped`. A supervisor (the daemon tests, an operator
/// reading ppdsd's shutdown stats) asserts wiped == aborts to PROVE that
/// every mid-protocol failure in the process zeroed its pads, without
/// reaching into engines owned by other threads' dead sessions.
///
/// The pool_wiped() scan covers staged correction bytes, expanded row
/// material and unconsumed pads. The engines also report their GGM state:
/// `frontier_wipes` counts aborts whose post-wipe frontier scan (every tree
/// root seed zeroed, the column-choice mask zeroed) came back clean.
/// Disconnect tests assert both counts equal the aborts.
struct OtAbortAudit {
  std::atomic<std::uint64_t> aborts{0};
  std::atomic<std::uint64_t> wiped{0};
  std::atomic<std::uint64_t> frontier_wipes{0};
};

OtAbortAudit& ot_abort_audit();

/// --- Batched session facade --------------------------------------------------
///
/// OtSender/OtReceiver implementation over the silent OT extension: the
/// first reserve() or transfer runs the one-round-trip seed agreement, and
/// every later slot costs a 16-byte correction row. An n-message transfer
/// consumes one direct arity-n slot; n > kMaxDirectArity throws
/// InvalidArgument. The slot ledger is protocol-deterministic, so both
/// sides stage identical correction blocks.

class BatchedOtSender : public OtSender {
 public:
  BatchedOtSender(const DhGroup& group, Rng& rng);
  ~BatchedOtSender() override;

  /// Ensures at least \p count unconsumed arity-\p arity slots on the
  /// shared ledger (the receiver must mirror with its own reserve()).
  void reserve(net::Endpoint& channel, std::size_t arity, std::size_t count);

  void send(net::Endpoint& channel, std::span<const Bytes> messages,
            std::size_t k) override;

  /// Poisons the engine after a failed round trip: wipes every seed and pad
  /// IN PLACE and refuses all further use (ProtocolError). Correlated
  /// randomness must never be resumed once the two sides may disagree on
  /// how much of it was consumed — a retried query runs on a FRESH engine.
  void abort() noexcept;

  bool aborted() const;

  /// Abort-audit hook: true when every staged byte and unconsumed pad is
  /// zero (the post-abort hygiene check of the chaos tests reads this
  /// instead of poking freed memory).
  bool pool_wiped() const;

  /// Unconsumed slots on the staged/consumed LEDGER (the protocol-
  /// deterministic quantity, not the locally-timed expansion level), summed
  /// across arities or for one arity.
  std::size_t available_slots() const;
  std::size_t available_slots(std::size_t arity) const;

  SilentPadSender* silent_engine() { return silent_.get(); }
  const SilentPadSender* silent_engine() const { return silent_.get(); }

 private:
  std::unique_ptr<SilentPadSender> silent_;
};

class BatchedOtReceiver : public OtReceiver {
 public:
  BatchedOtReceiver(const DhGroup& group, Rng& rng);
  ~BatchedOtReceiver() override;

  void reserve(net::Endpoint& channel, std::size_t arity, std::size_t count);

  std::vector<Bytes> receive(net::Endpoint& channel,
                             std::span<const std::size_t> indices,
                             std::size_t n, std::size_t message_len) override;

  /// See BatchedOtSender::abort().
  void abort() noexcept;

  bool aborted() const;

  /// See BatchedOtSender::pool_wiped().
  bool pool_wiped() const;

  /// See BatchedOtSender::available_slots().
  std::size_t available_slots() const;
  std::size_t available_slots(std::size_t arity) const;

  SilentPadReceiver* silent_engine() { return silent_.get(); }
  const SilentPadReceiver* silent_engine() const { return silent_.get(); }

 private:
  std::unique_ptr<SilentPadReceiver> silent_;
};

/// Online phase: consumes one slot per transfer. The receiver
/// announces the public shift s = (index - choice) mod n, the sender
/// answers with all n messages each XORed with the pad the shift aligns to
/// the receiver's one known pad — 1 byte up, n * len bytes down, no
/// public-key operations.
void precomputed_send_1ofn(net::Endpoint& channel,
                           const PrecomputedSendSlot& slot,
                           std::span<const Bytes> messages);

Bytes precomputed_receive_1ofn(net::Endpoint& channel,
                               const PrecomputedRecvSlot& slot,
                               std::size_t index, std::size_t message_len);

/// Arity-2 wrappers (the Beaver online phase).
void precomputed_send_1of2(net::Endpoint& channel,
                           const PrecomputedSendSlot& slot, const Bytes& m0,
                           const Bytes& m1);

Bytes precomputed_receive_1of2(net::Endpoint& channel,
                               const PrecomputedRecvSlot& slot,
                               PPDS_SECRET bool choice);

}  // namespace ppds::crypto
