#pragma once

#include <atomic>
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
/// wire footprint. OtSender/OtReceiver below is the k-out-of-n interface the
/// OMPE rounds call; SilentPad{Sender,Receiver} implement it.

namespace ppds::crypto {

/// Sender half of a k-out-of-n OT engine.
class OtSender {
 public:
  virtual ~OtSender() = default;

  /// Transfers k of the n = messages.size() byte strings; which k is the
  /// receiver's secret. All messages must have equal length.
  virtual void send(net::Endpoint& channel,
                    std::span<const Bytes> messages, std::size_t k) = 0;

  /// Offline phase: ensures at least \p count unconsumed arity-\p arity
  /// transfers are prepared (the receiver mirrors with its own reserve()).
  /// A no-op for engines with no offline phase.
  virtual void reserve(net::Endpoint& /*channel*/, std::size_t /*arity*/,
                       std::size_t /*count*/) {}

  /// Fails the engine closed after a mid-protocol error: wipes its secret
  /// state and refuses further use. A no-op for engines that hold none.
  virtual void abort() noexcept {}
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

  /// See OtSender::reserve().
  virtual void reserve(net::Endpoint& /*channel*/, std::size_t /*arity*/,
                       std::size_t /*count*/) {}

  /// See OtSender::abort().
  virtual void abort() noexcept {}
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
/// must fit one byte). The silent engine refuses larger transfers;
/// ompe::validate() keeps every OMPE round below it.
inline constexpr std::size_t kMaxDirectArity = 256;

/// Runs \p count 1-out-of-2 OTs of \p pad_len-byte random pads in ONE
/// channel round trip (the batched base phase above; pad_len <= 32).
/// Returns the sender-side slots; receiver-side slots come out of the
/// matching call on the other thread.
std::vector<PrecomputedSendSlot> precompute_ot_sender(
    net::Endpoint& channel, const DhGroup& group, std::size_t count,
    std::size_t pad_len, Rng& rng);

std::vector<PrecomputedRecvSlot> precompute_ot_receiver(
    net::Endpoint& channel, const DhGroup& group, std::size_t count,
    std::size_t pad_len, Rng& rng);

/// Process-wide abort-and-wipe audit. Every SilentPad{Sender,Receiver}::
/// abort() increments `aborts` and — when the post-wipe pads_clean() scan
/// comes back clean — `wiped`. A supervisor (the daemon tests, an operator
/// reading ppdsd's shutdown stats) asserts wiped == aborts to PROVE that
/// every mid-protocol failure in the process zeroed its pads, without
/// reaching into engines owned by other threads' dead sessions.
///
/// The pads_clean() scan covers staged correction bytes, expanded row
/// material and unconsumed pads. The engines also report their GGM state:
/// `frontier_wipes` counts aborts whose post-wipe frontier_clean() scan
/// came back clean: every tree root seed zeroed, plus the sender's
/// column-choice mask zeroed and the receiver's choice-stream seed gone.
/// Disconnect tests assert both counts equal the aborts.
struct OtAbortAudit {
  std::atomic<std::uint64_t> aborts{0};
  std::atomic<std::uint64_t> wiped{0};
  std::atomic<std::uint64_t> frontier_wipes{0};
};

OtAbortAudit& ot_abort_audit();

/// Throws InvalidArgument unless \p messages is non-empty and every message
/// has the same length (what every engine's send() requires).
void check_equal_lengths(std::span<const Bytes> messages);

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

}  // namespace ppds::crypto
