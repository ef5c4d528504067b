#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "ppds/common/bytes.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/common/secret_taint.hpp"
#include "ppds/crypto/group.hpp"
#include "ppds/net/channel.hpp"

/// \file ot.hpp
/// The oblivious-transfer stack of Section III-B, bottom-up:
///
///   1-out-of-2  — Naor-Pinkas over a DH group (semi-honest).
///   1-out-of-n  — bit-decomposition key construction: the sender draws
///                 2*ceil(log2 n) pad keys, encrypts message i under the
///                 hash of the keys selected by i's bits, and the parties
///                 run log2(n) parallel 1-out-of-2 OTs on the keys.
///   k-out-of-n  — k parallel 1-out-of-n instances (sufficient for the
///                 honest-but-curious model the paper assumes).
///
/// All protocols speak over a net::Endpoint so every run has an exact,
/// countable wire footprint. Two engines implement the same interface:
///
///   NaorPinkas* — the real cryptographic instantiation (GMP modexp).
///   Loopback*   — a trusted-simulation engine that transfers the selected
///                 messages directly. It provides NO privacy and exists so
///                 large benches can isolate the algebraic OMPE cost from
///                 public-key OT cost (the paper does not specify its OT
///                 implementation; we report both regimes).

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

/// --- Naor-Pinkas engine ----------------------------------------------------

/// Cryptographic k-out-of-n OT sender. Shares a DhGroup with the receiver
/// (public parameters).
class NaorPinkasSender : public OtSender {
 public:
  NaorPinkasSender(const DhGroup& group, Rng& rng)
      : group_(group), rng_(rng) {}

  void send(net::Endpoint& channel, std::span<const Bytes> messages,
            std::size_t k) override;

  /// Single 1-out-of-2 OT (exposed for tests and OT precomputation).
  void send_1of2(net::Endpoint& channel, const Bytes& m0, const Bytes& m1);

  const DhGroup& group() const { return group_; }

 private:
  void send_1ofn(net::Endpoint& channel, std::span<const Bytes> messages);

  const DhGroup& group_;
  Rng& rng_;
};

/// Cryptographic k-out-of-n OT receiver.
class NaorPinkasReceiver : public OtReceiver {
 public:
  NaorPinkasReceiver(const DhGroup& group, Rng& rng)
      : group_(group), rng_(rng) {}

  std::vector<Bytes> receive(net::Endpoint& channel,
                             std::span<const std::size_t> indices,
                             std::size_t n, std::size_t message_len) override;

  Bytes receive_1of2(net::Endpoint& channel, PPDS_SECRET bool choice,
                     std::size_t message_len);

  const DhGroup& group() const { return group_; }

 private:
  Bytes receive_1ofn(net::Endpoint& channel, std::size_t index, std::size_t n,
                     std::size_t message_len);

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

/// --- OT precomputation (Beaver) ---------------------------------------------
///
/// Runs the expensive public-key OTs offline on random pads with random
/// choice bits; the online phase per 1-out-of-2 OT is two XORs and one bit
/// of correction. This implements the paper's remark that the cost "can be
/// further reduced by generating random polynomials before the scheme" in
/// its OT analogue, and feeds the ablation bench.
///
/// The offline phase is BATCHED and AMORTIZED (Naor-Pinkas SODA'01 style):
/// the sender reuses one (C_1..C_{n-1}, r) tuple across all N slots of a
/// batch, ships `C_1 || ... || C_{n-1} || g^r` once, the receiver answers
/// with all N blinded public keys in one bundle, and both sides derive the
/// random pads from hashed DH shared secrets with a per-slot domain-
/// separation tag — one round trip and one full exponentiation per slot
/// instead of 3 messages and 6 exponentiations. Fixed-base tables
/// (group.hpp) serve every g^x, the sender's inverse shares run through one
/// Montgomery batch inversion, and the receiver builds a per-batch table
/// for g^r.
///
/// Slots are 1-out-of-ARITY: a direct 1-of-n slot holds n pads of which the
/// receiver knows exactly one, so one n-message transfer consumes ONE slot
/// (one offline exponentiation) instead of the ceil(log2 n) arity-2 slots
/// the bit-decomposition construction needs. Arity 2 is the legacy Beaver
/// 1-out-of-2 slot.

/// Offline artifact held by the sender: one random pad per possible choice
/// index (Beaver correlated randomness — taint roots for the analyzer).
/// The slot's arity is pads.size().
struct PrecomputedSendSlot {
  PPDS_SECRET std::vector<Bytes> pads;
};

/// Offline artifact held by the receiver: its random choice in [0, arity)
/// and the matching pad. The arity itself is public protocol shape.
struct PrecomputedRecvSlot {
  PPDS_SECRET std::uint32_t choice = 0;
  PPDS_SECRET Bytes pad;
  std::uint32_t arity = 2;
};

/// Largest arity served by direct 1-of-n precomputed slots (the online
/// correction shift must fit one byte). The batched engines refuse larger
/// transfers; ompe::validate() keeps every OMPE round below it.
inline constexpr std::size_t kMaxDirectArity = 256;

/// Number of 1-out-of-2 key transfers a Naor-Pinkas 1-out-of-n OT needs:
/// ceil(log2 n) (0 when n == 1, where the single message is sent directly).
std::size_t index_bits(std::size_t n);

/// Slots one batched-engine top-up round trip adds to a pool when a
/// transfer outruns its reservation (the non-silent engines derive the
/// top-up size on both sides, so both must use the same value).
inline constexpr std::size_t kRefillBatch = 128;

// Silent-OT machinery (crypto/silent_ot.hpp, crypto/reservoir.hpp) — kept
// behind forward declarations so the base OT header stays cycle-free.
class SilentPadSender;
class SilentPadReceiver;
class PadReservoir;

/// Runs \p count offline 1-out-of-\p arity OTs of \p pad_len-byte random
/// pads in ONE channel round trip (amortized base phase, pads derived from
/// hashed DH secrets; pad_len <= 32, 2 <= arity <= kMaxDirectArity).
/// Returns the sender-side slots; receiver-side slots come out of the
/// matching call on the other thread.
std::vector<PrecomputedSendSlot> precompute_ot_sender(
    net::Endpoint& channel, NaorPinkasSender& sender, std::size_t count,
    std::size_t pad_len, Rng& rng, std::size_t arity = 2);

std::vector<PrecomputedRecvSlot> precompute_ot_receiver(
    net::Endpoint& channel, NaorPinkasReceiver& receiver, std::size_t count,
    std::size_t pad_len, Rng& rng, std::size_t arity = 2);

/// Process-wide abort-and-wipe audit. Every BatchedOt{Sender,Receiver}::
/// abort() increments `aborts` and — when the post-wipe pool_wiped() scan
/// comes back clean — `wiped`. A supervisor (the daemon tests, an operator
/// reading ppdsd's shutdown stats) asserts wiped == aborts to PROVE that
/// every mid-protocol failure in the process zeroed its pad pools, without
/// reaching into engines owned by other threads' dead sessions.
///
/// Engines running the silent precompute additionally report their GGM
/// state: `frontier_wipes` counts aborts whose post-wipe frontier scan
/// (every tree root seed zeroed, the column-choice mask zeroed) came back
/// clean, and `reservoir_wipes` counts aborts whose staged correction
/// bytes, pre-expanded row material and unconsumed pads all scanned zero —
/// with the background refill thread racing the abort. Disconnect tests
/// assert both equal the number of silent-engine aborts.
struct OtAbortAudit {
  std::atomic<std::uint64_t> aborts{0};
  std::atomic<std::uint64_t> wiped{0};
  std::atomic<std::uint64_t> frontier_wipes{0};
  std::atomic<std::uint64_t> reservoir_wipes{0};
};

OtAbortAudit& ot_abort_audit();

/// --- Batched session facade --------------------------------------------------
///
/// OtSender/OtReceiver implementation that owns the Naor-Pinkas base
/// machinery and auto-refilled PER-ARITY pools of precomputed slots:
/// reserve() tops a pool up for a whole classification session in one round
/// trip, and send()/receive() refill symmetrically (both sides derive the
/// same top-up size from the transfer shape) if a session outruns its
/// reservation. An n-message transfer consumes one direct arity-n slot;
/// n > kMaxDirectArity throws InvalidArgument.

class BatchedOtSender : public OtSender {
 public:
  BatchedOtSender(const DhGroup& group, Rng& rng,
                  std::size_t refill_batch = kRefillBatch);
  ~BatchedOtSender() override;

  /// Ensures at least \p slots unconsumed arity-2 slots, topping up in one
  /// round trip (the receiver must mirror with its own reserve()).
  void reserve(net::Endpoint& channel, std::size_t slots);

  /// Ensures at least \p count unconsumed arity-\p arity slots.
  void reserve(net::Endpoint& channel, std::size_t arity, std::size_t count);

  void send(net::Endpoint& channel, std::span<const Bytes> messages,
            std::size_t k) override;

  /// Poisons the engine after a failed round trip: wipes every precomputed
  /// pad IN PLACE and refuses all further use (ProtocolError). Correlated
  /// randomness must never be resumed once the two sides may disagree on
  /// how much of it was consumed — a retried query runs on a FRESH engine.
  void abort() noexcept;

  bool aborted() const { return aborted_; }

  /// Abort-audit hook: true when every pad byte in every pool is zero (the
  /// post-abort hygiene check of the chaos tests reads this instead of
  /// poking freed memory).
  bool pool_wiped() const;

  /// Unconsumed slots summed across every arity pool. Alias of
  /// available_slots() — see there for the coherence contract.
  std::size_t remaining() const;

  /// Unconsumed slots of one arity.
  std::size_t remaining(std::size_t arity) const;

  /// Coherent unconsumed-slot accessors: one snapshot under the engine
  /// lock, never a lock-free sum racing a background refill. In silent
  /// mode these report the staged/consumed LEDGER (the protocol-
  /// deterministic quantity), not the locally-timed expansion level.
  std::size_t available_slots() const;
  std::size_t available_slots(std::size_t arity) const;

  /// Switches the offline phase to the silent PPRF engine: one base-OT
  /// handshake on first reserve(), then corrections-only staging. Call
  /// before any reserve()/transfer; \p low_water is the per-arity pool mark
  /// the background reservoir refills against.
  void enable_silent(std::size_t low_water);
  bool silent_enabled() const { return silent_ != nullptr; }
  SilentPadSender* silent_engine() { return silent_.get(); }
  const SilentPadSender* silent_engine() const { return silent_.get(); }

  /// Hooks the silent engine to a background reservoir (no-op without
  /// enable_silent()). detach_reservoir() blocks until the reservoir's
  /// workers have left the engine; the destructor detaches automatically.
  void attach_reservoir(PadReservoir& reservoir);
  void detach_reservoir() noexcept;

 private:
  struct Pool {
    std::size_t arity = 2;
    std::vector<PrecomputedSendSlot> slots;
    std::size_t next = 0;
  };

  Pool& pool_for(std::size_t arity);

  NaorPinkasSender base_;
  Rng& rng_;
  std::size_t refill_batch_;
  std::size_t low_water_ = 0;
  // Guards pools_ so available_slots() observers on other threads see a
  // coherent snapshot; the protocol thread is the only mutator.
  mutable std::mutex pools_mu_;
  // Pool bookkeeping (arity, counts, cursor) is public protocol metadata;
  // the secrets live in the slots' annotated fields.
  std::vector<Pool> pools_;
  std::unique_ptr<SilentPadSender> silent_;
  bool aborted_ = false;
};

class BatchedOtReceiver : public OtReceiver {
 public:
  BatchedOtReceiver(const DhGroup& group, Rng& rng,
                    std::size_t refill_batch = kRefillBatch);
  ~BatchedOtReceiver() override;

  void reserve(net::Endpoint& channel, std::size_t slots);
  void reserve(net::Endpoint& channel, std::size_t arity, std::size_t count);

  std::vector<Bytes> receive(net::Endpoint& channel,
                             std::span<const std::size_t> indices,
                             std::size_t n, std::size_t message_len) override;

  /// See BatchedOtSender::abort().
  void abort() noexcept;

  bool aborted() const { return aborted_; }

  /// See BatchedOtSender::pool_wiped().
  bool pool_wiped() const;

  std::size_t remaining() const;
  std::size_t remaining(std::size_t arity) const;

  /// See BatchedOtSender::available_slots().
  std::size_t available_slots() const;
  std::size_t available_slots(std::size_t arity) const;

  /// See BatchedOtSender::enable_silent().
  void enable_silent(std::size_t low_water);
  bool silent_enabled() const { return silent_ != nullptr; }
  SilentPadReceiver* silent_engine() { return silent_.get(); }
  const SilentPadReceiver* silent_engine() const { return silent_.get(); }

  void attach_reservoir(PadReservoir& reservoir);
  void detach_reservoir() noexcept;

 private:
  struct Pool {
    std::size_t arity = 2;
    std::vector<PrecomputedRecvSlot> slots;
    std::size_t next = 0;
  };

  Pool& pool_for(std::size_t arity);

  NaorPinkasReceiver base_;
  Rng& rng_;
  std::size_t refill_batch_;
  std::size_t low_water_ = 0;
  mutable std::mutex pools_mu_;
  std::vector<Pool> pools_;
  std::unique_ptr<SilentPadReceiver> silent_;
  bool aborted_ = false;
};

/// Online phase: consumes one precomputed slot per transfer. The receiver
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

/// Arity-2 wrappers (byte-compatible with the legacy Beaver online phase).
void precomputed_send_1of2(net::Endpoint& channel,
                           const PrecomputedSendSlot& slot, const Bytes& m0,
                           const Bytes& m1);

Bytes precomputed_receive_1of2(net::Endpoint& channel,
                               const PrecomputedRecvSlot& slot,
                               PPDS_SECRET bool choice);

}  // namespace ppds::crypto
