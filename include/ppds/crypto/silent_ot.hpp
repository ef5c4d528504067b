#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "ppds/common/bytes.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/common/secret_taint.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/crypto/pprf.hpp"
#include "ppds/crypto/prg.hpp"

/// \file silent_ot.hpp
/// Silent OT precompute: a KK13-style OT extension, the engine of every
/// private transfer (SilentPad{Sender,Receiver} are the OtSender/OtReceiver
/// implementations behind core::OtBundle). A batched DH phase would
/// pay one full exponentiation and one group element of bandwidth PER
/// SLOT; this engine pays them only for its 128 base OTs and expands every
/// later slot from PPRF keystreams.
///
/// One-round-trip seed agreement: the pad-SENDER plays base-OT *receiver*
/// for kSilentColumns 1-of-2 transfers of 32-byte seeds (role flip), so it
/// ends up with one GGM root per column j plus the secret choice bit
/// Delta_j; the pad-RECEIVER plays base-OT sender and keeps BOTH roots
/// (k0_j, k1_j). That single amortized handshake — O(columns) = O(log
/// domain) seeds, since the 2^depth-leaf trees cover kSilentRowsPerLeaf *
/// 2^depth pad slots — is the only public-key work for the engine's entire
/// lifetime.
///
/// Per pad slot (row r, arity n):
///   receiver: draws secret alpha_r in [0, n), sends the 16-byte correction
///             u_r = t0_r XOR t1_r XOR C(alpha_r); its pad is
///             H(r, t0_r).
///   sender:   Q_r = t^{Delta}_r XOR (Delta AND u_r) = t0_r XOR
///             (C(alpha_r) AND Delta); pad v is H(r, Q_r XOR (C(v) AND
///             Delta)), which matches the receiver's at v = alpha_r and
///             costs 2^64 guesses of Delta elsewhere (the RM(1,7) code has
///             distance 64; see docs/PROTOCOL.md).
///
/// The column streams t^b_j are the leaves of per-column GgmTrees expanded
/// frontier-style in blocks, on the thread that runs the protocol: the
/// receiver expands when it stages a correction block, the sender when
/// take() first needs a staged block's pads. The wire carries only the
/// deterministic correction blocks, sized by the shared staged/consumed
/// ledger.

namespace ppds::crypto {

/// Number of base OTs / keystream columns. 128 columns with the RM(1,7)
/// codeword set (256 codewords, minimum distance 64) serve every direct
/// slot arity in [2, kMaxDirectArity].
inline constexpr std::size_t kSilentColumns = 128;
inline constexpr std::size_t kSilentRowBytes = kSilentColumns / 8;

/// One 32-byte GGM leaf carries 256 rows of one column's keystream.
inline constexpr std::size_t kSilentRowsPerLeaf = 256;

/// Tree depth: 2^16 leaves * 256 rows = ~16.7M pad slots per engine
/// lifetime; exhausting the domain fails closed (ProtocolError).
inline constexpr unsigned kSilentTreeDepth = 16;

/// Correction blocks are staged in multiples of this many rows — a
/// PROTOCOL constant (both sides derive identical block sizes from the
/// ledger).
inline constexpr std::size_t kSilentStageQuantum = 128;

/// Slots a transfer stages beyond its own need whenever the ledger runs
/// short. A protocol constant: it fixes where both sides cut the
/// correction blocks, so changing it changes the transcript.
inline constexpr std::size_t kSilentLeadSlots = 16;

using SilentRow = std::array<std::uint8_t, kSilentRowBytes>;

/// RM(1,7) codeword of \p v: bit j = parity((v & 127) & j) XOR (v >> 7).
/// Branch-free and table-free, so safe to evaluate on a SECRET index (the
/// receiver's choice alpha) without a data-dependent memory access.
SilentRow silent_codeword_ct(std::uint32_t v);

/// Cached codeword table — PUBLIC indices only (the sender's pads loop).
const std::array<SilentRow, kMaxDirectArity>& silent_codewords();

/// --- Sender half -------------------------------------------------------------
///
/// The first reserve() or transfer runs the one-round-trip seed agreement,
/// and every later slot costs a 16-byte correction row. An n-message
/// transfer consumes one direct arity-n slot; n > kMaxDirectArity throws
/// InvalidArgument. The slot ledger is protocol-deterministic, so both
/// sides stage identical correction blocks.
///
/// Both halves are driven by the one thread running their protocol; the
/// mutex only lets other threads read the accessors and call abort(). It
/// is never held across channel I/O.
class SilentPadSender final : public OtSender {
 public:
  SilentPadSender(const DhGroup& group, Rng& rng);
  ~SilentPadSender() override;

  SilentPadSender(const SilentPadSender&) = delete;
  SilentPadSender& operator=(const SilentPadSender&) = delete;

  /// Ensures at least \p count unconsumed arity-\p arity slots on the
  /// shared ledger (the receiver must mirror with its own reserve()). Pure
  /// bookkeeping plus the correction-block recvs; the pads expand lazily
  /// in send().
  void reserve(net::Endpoint& channel, std::size_t arity,
               std::size_t count) override;

  void send(net::Endpoint& channel, std::span<const Bytes> messages,
            std::size_t k) override;

  /// One-round-trip seed agreement (lazy; protocol thread). No-op once run.
  void ensure_ready(net::Endpoint& channel);

  /// Protocol thread: pops one finished slot (ledger must cover it),
  /// expanding the oldest staged block first when none is ready. The
  /// caller owns wiping the returned pads (send() does).
  PrecomputedSendSlot take(std::size_t arity);

  /// Poisons the engine after a failed round trip: wipes every seed and pad
  /// IN PLACE, refuses all further use (ProtocolError) and feeds
  /// ot_abort_audit(). Correlated randomness must never be resumed once the
  /// two sides may disagree on how much of it was consumed — a retried
  /// query runs on a FRESH engine.
  void abort() noexcept override;
  bool aborted() const;

  /// Post-abort hygiene scans (audit hooks).
  bool frontier_clean() const;  ///< every GGM root seed + Delta zeroed
  bool pads_clean() const;      ///< every staged byte + unconsumed pad zeroed

  /// Unconsumed slots on the staged/consumed LEDGER (the protocol-
  /// deterministic quantity reserve() sizes from, not the locally-timed
  /// expansion level), summed across arities or for one arity.
  std::size_t ledger_available() const;
  std::size_t ledger_available(std::size_t arity) const;

  /// Staged blocks take() has expanded into pads.
  std::uint64_t sync_expansions() const;

 private:
  struct Ledger {
    std::size_t arity = 2;
    std::size_t staged = 0;
    std::size_t consumed = 0;
  };
  struct PendingBlock {
    std::size_t arity = 2;
    std::uint64_t first_row = 0;
    std::size_t count = 0;
    PPDS_SECRET Bytes u;  ///< count * kSilentRowBytes correction bytes
  };
  struct Pool {
    std::size_t arity = 2;
    std::deque<PrecomputedSendSlot> slots;
  };

  /// Protocol thread: receives correction blocks until the ledger covers
  /// \p count unconsumed arity-\p arity slots.
  void stage_to(net::Endpoint& channel, std::size_t arity, std::size_t count);
  Ledger& ledger_for(std::size_t arity);
  Pool& pool_for(std::size_t arity);
  /// Expands \p block into finished slots (pure PRG+hash).
  std::vector<PrecomputedSendSlot> expand_block(const PendingBlock& block) const;
  /// Zeroes every live secret (caller holds mu_).
  void wipe_secrets() noexcept;

  const DhGroup& group_;
  Rng& rng_;

  mutable std::mutex mu_;
  bool ready_ = false;
  bool aborted_ = false;

  /// Per-column keystream trees t^{Delta_j}_j and the secret column choice
  /// mask Delta (the sender's correlation secret).
  std::vector<GgmTree> trees_;
  PPDS_SECRET SilentRow delta_{};

  std::uint64_t next_row_ = 0;
  std::vector<Ledger> ledgers_;
  std::deque<PendingBlock> pending_;
  std::vector<Pool> pools_;

  std::uint64_t sync_expansions_ = 0;
};

/// --- Receiver half -----------------------------------------------------------

class SilentPadReceiver final : public OtReceiver {
 public:
  SilentPadReceiver(const DhGroup& group, Rng& rng);
  ~SilentPadReceiver() override;

  SilentPadReceiver(const SilentPadReceiver&) = delete;
  SilentPadReceiver& operator=(const SilentPadReceiver&) = delete;

  /// See SilentPadSender::reserve(). The receiver draws the choices and
  /// builds, sends and expands into finished slots at staging time.
  void reserve(net::Endpoint& channel, std::size_t arity,
               std::size_t count) override;

  std::vector<Bytes> receive(net::Endpoint& channel,
                             std::span<const std::size_t> indices,
                             std::size_t n, std::size_t message_len) override;

  void ensure_ready(net::Endpoint& channel);

  /// Protocol thread: pops one finished slot. Receiver slots are built at
  /// staging time, so this never blocks.
  PrecomputedRecvSlot take(std::size_t arity);

  /// See SilentPadSender::abort(). Also drops the choice stream, whose
  /// seed would regenerate every past alpha_r.
  void abort() noexcept override;
  bool aborted() const;
  bool frontier_clean() const;  ///< every GGM root seed zeroed, no choice
                                ///< stream left
  bool pads_clean() const;

  std::size_t ledger_available() const;
  std::size_t ledger_available(std::size_t arity) const;

  /// GGM leaf chunks (kSilentRowsPerLeaf rows each) expanded so far.
  std::uint64_t sync_expansions() const;

  /// Returns this. Kept for the benchmark harness, which reads
  /// sync_expansions() through core::OtBundle::batched_receiver().
  const SilentPadReceiver* silent_engine() const { return this; }

 private:
  struct Ledger {
    std::size_t arity = 2;
    std::size_t staged = 0;
    std::size_t consumed = 0;
  };
  /// Arity-independent per-row keystream material (row-major, after the
  /// column->row bit transpose): t0_r and t0_r XOR t1_r.
  struct RowMaterial {
    PPDS_SECRET SilentRow t0{};
    PPDS_SECRET SilentRow ubase{};
  };
  struct Pool {
    std::size_t arity = 2;
    std::deque<PrecomputedRecvSlot> slots;
  };

  /// Protocol thread: draws choices, builds + SENDS correction blocks until
  /// the ledger covers \p count unconsumed arity-\p arity slots, and pushes
  /// the matching finished recv slots, expanding row material as needed
  /// (counted in sync_expansions()).
  void stage_to(net::Endpoint& channel, std::size_t arity, std::size_t count);
  Ledger& ledger_for(std::size_t arity);
  Pool& pool_for(std::size_t arity);
  /// Appends the next GGM leaf chunk (kSilentRowsPerLeaf rows) of both
  /// column trees as row material.
  void expand_next_chunk();
  std::uint64_t material_through() const;
  /// Zeroes every live secret and drops the choice stream (caller holds
  /// mu_).
  void wipe_secrets() noexcept;

  const DhGroup& group_;
  Rng& rng_;

  mutable std::mutex mu_;
  bool ready_ = false;
  bool aborted_ = false;

  /// Both column keystream trees per column (the receiver ran the base OTs
  /// as sender, so it knows k0_j AND k1_j).
  std::vector<GgmTree> trees0_;
  std::vector<GgmTree> trees1_;
  /// Secret choice stream: alpha draws come from a dedicated PRG seeded
  /// from the session rng at setup (the transcript depends on this fork).
  std::optional<Prg> choice_prg_;

  std::uint64_t next_row_ = 0;
  std::uint64_t material_from_ = 0;
  std::deque<RowMaterial> material_;
  std::vector<Ledger> ledgers_;
  std::vector<Pool> pools_;

  std::uint64_t sync_expansions_ = 0;
};

}  // namespace ppds::crypto
