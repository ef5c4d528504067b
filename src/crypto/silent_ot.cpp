#include "ppds/crypto/silent_ot.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "ppds/common/ct.hpp"
#include "ppds/common/error.hpp"

namespace ppds::crypto {

namespace {

constexpr std::uint64_t kSilentDomainRows =
    (std::uint64_t{1} << kSilentTreeDepth) * kSilentRowsPerLeaf;

/// Pad derivation H(row, masked_row): 32-byte output shared verbatim by
/// both halves (the receiver's masked row is t0_r itself).
Digest silent_row_pad(std::uint64_t row,
                      std::span<const std::uint8_t> masked_row) {
  std::array<Bytes, 3> parts;
  parts[0] = Bytes(as_u8_span("ppds/silent-ot/pad").begin(),
                   as_u8_span("ppds/silent-ot/pad").end());
  parts[1].resize(8);
  store_le64(parts[1].data(), row);
  parts[2].assign(masked_row.begin(), masked_row.end());
  const Digest out = sha256_tagged(parts);
  secure_wipe(std::span(parts[2]));
  return out;
}

/// Shared deterministic block sizing: both sides round the ledger shortfall
/// up to whole stage quanta, so the correction block sizes are a pure
/// function of the reserve()/transfer sequence.
std::size_t block_rows_for(std::size_t shortfall) {
  const std::size_t want = std::max(shortfall, kSilentStageQuantum);
  return (want + kSilentStageQuantum - 1) / kSilentStageQuantum *
         kSilentStageQuantum;
}

std::uint32_t bounded_choice(std::uint64_t word, std::size_t arity) {
  __extension__ using u128 = unsigned __int128;
  return static_cast<std::uint32_t>((static_cast<u128>(word) * arity) >> 64);
}

[[noreturn]] void fail_aborted() {
  throw ProtocolError("silent ot: aborted engine cannot be resumed");
}

void check_slot_arity(std::size_t arity) {
  detail::require(arity >= 2 && arity <= kMaxDirectArity,
                  "ot: slot arity must be in [2, kMaxDirectArity]");
}

void wipe_slot(PrecomputedSendSlot& slot) {
  for (Bytes& pad : slot.pads) secure_wipe(std::span(pad));
}

void wipe_slot(PrecomputedRecvSlot& slot) {
  secure_wipe(std::span(slot.pad));
  slot.choice = 0;
}

template <typename Slot>
void wipe_slot(std::vector<Slot>& slots) {
  for (Slot& slot : slots) wipe_slot(slot);
}

/// wipe_slot on scope exit, the exception path included: a pad taken for a
/// transfer, or a batch of base-OT seeds, must not outlive a round that
/// throws. (ScopedWipe in common/ct.hpp does the same for byte buffers.)
template <typename T>
class ScopedWipeSlot {
 public:
  explicit ScopedWipeSlot(T& target) noexcept : target_(&target) {}

  ScopedWipeSlot(const ScopedWipeSlot&) = delete;
  ScopedWipeSlot& operator=(const ScopedWipeSlot&) = delete;

  ~ScopedWipeSlot() { wipe_slot(*target_); }

 private:
  T* target_;
};

/// Feeds the process-wide audit after an engine's abort() has wiped it.
template <typename Engine>
void audit_abort(const Engine& engine) {
  OtAbortAudit& audit = ot_abort_audit();
  audit.aborts.fetch_add(1);
  if (engine.pads_clean()) audit.wiped.fetch_add(1);
  if (engine.frontier_clean()) audit.frontier_wipes.fetch_add(1);
}

}  // namespace

SilentRow silent_codeword_ct(std::uint32_t v) {
  SilentRow out{};
  const std::uint32_t linear = v & 127U;
  const std::uint32_t complement = (v >> 7) & 1U;
  for (std::uint32_t j = 0; j < kSilentColumns; ++j) {
    // popcount parity + XOR: data-independent instruction sequence, safe on
    // a secret v (no table gather, no branch).
    const std::uint32_t bit =
        (static_cast<std::uint32_t>(std::popcount(linear & j)) ^ complement) &
        1U;
    out[j >> 3] |= static_cast<std::uint8_t>(bit << (j & 7));
  }
  return out;
}

const std::array<SilentRow, kMaxDirectArity>& silent_codewords() {
  static const std::array<SilentRow, kMaxDirectArity> table = [] {
    std::array<SilentRow, kMaxDirectArity> t{};
    for (std::uint32_t v = 0; v < kMaxDirectArity; ++v) {
      t[v] = silent_codeword_ct(v);
    }
    return t;
  }();
  return table;
}

/// --- Sender half -------------------------------------------------------------

SilentPadSender::SilentPadSender(const DhGroup& group, Rng& rng)
    : group_(group), rng_(rng) {}

SilentPadSender::~SilentPadSender() {
  std::lock_guard lk(mu_);
  wipe_secrets();
}

void SilentPadSender::wipe_secrets() noexcept {
  // Zero every live secret: frontier seeds, the column-choice mask, staged
  // correction bytes and unconsumed pads.
  for (GgmTree& tree : trees_) tree.wipe();
  secure_wipe(std::span(delta_));
  for (PendingBlock& block : pending_) secure_wipe(std::span(block.u));
  pending_.clear();
  for (Pool& pool : pools_) {
    for (PrecomputedSendSlot& slot : pool.slots) wipe_slot(slot);
  }
  for (Ledger& led : ledgers_) led.consumed = led.staged;
}

void SilentPadSender::reserve(net::Endpoint& channel, std::size_t arity,
                              std::size_t count) {
  if (aborted()) fail_aborted();
  check_slot_arity(arity);
  ensure_ready(channel);
  stage_to(channel, arity, count);
}

void SilentPadSender::send(net::Endpoint& channel,
                           std::span<const Bytes> messages, std::size_t k) {
  if (aborted()) fail_aborted();
  check_equal_lengths(messages);
  detail::require(k >= 1 && k <= messages.size(), "ot: bad k");
  const std::size_t n = messages.size();
  detail::require(n <= kMaxDirectArity,
                  "ot: transfer arity above kMaxDirectArity");
  if (n == 1) {
    for (std::size_t i = 0; i < k; ++i) channel.send(messages.front());
    return;
  }
  ensure_ready(channel);
  // Auto-staging keyed on the shared ledger and PROTOCOL constants, so both
  // sides stage identical correction blocks.
  if (ledger_available(n) < k + kSilentLeadSlots) {
    stage_to(channel, n, k + kSilentLeadSlots);
  }
  for (std::size_t i = 0; i < k; ++i) {
    PrecomputedSendSlot slot = take(n);
    const ScopedWipeSlot slot_guard(slot);
    precomputed_send_1ofn(channel, slot, messages);
  }
}

void SilentPadSender::ensure_ready(net::Endpoint& channel) {
  {
    std::lock_guard lk(mu_);
    if (aborted_) fail_aborted();
    if (ready_) return;
  }
  // Role flip: the pad-sender is the base-OT RECEIVER, ending up with one
  // seed per column plus the secret choice bit Delta_j. One amortized round
  // trip of kSilentColumns 1-of-2 transfers is the engine's entire
  // public-key bill.
  auto base_slots =
      precompute_ot_receiver(channel, group_, kSilentColumns, 32, rng_);
  const ScopedWipeSlot base_guard(base_slots);
  std::vector<GgmTree> trees;  // ~GgmTree wipes each root
  trees.reserve(kSilentColumns);
  PPDS_SECRET SilentRow delta{};
  const ScopedWipe delta_guard(delta);
  for (std::size_t j = 0; j < kSilentColumns; ++j) {
    delta[j >> 3] |= static_cast<std::uint8_t>((base_slots[j].choice & 1U)
                                               << (j & 7));
    PPDS_SECRET Digest root{};
    detail::require(base_slots[j].pad.size() == sizeof(Digest),
                    "silent ot: bad base seed length");
    std::memcpy(root.data(), base_slots[j].pad.data(), sizeof(Digest));
    trees.emplace_back(root, kSilentTreeDepth);
    secure_wipe(std::span(root));
  }
  std::lock_guard lk(mu_);
  // abort() may have run during the seed agreement. The seeds built since
  // then must die with the engine, not land in it: throwing leaves them to
  // the guards and the GgmTree destructors.
  if (aborted_) fail_aborted();
  trees_ = std::move(trees);
  delta_ = delta;
  ready_ = true;
}

SilentPadSender::Ledger& SilentPadSender::ledger_for(std::size_t arity) {
  for (Ledger& led : ledgers_) {
    if (led.arity == arity) return led;
  }
  ledgers_.push_back(Ledger{arity, 0, 0});
  return ledgers_.back();
}

SilentPadSender::Pool& SilentPadSender::pool_for(std::size_t arity) {
  for (Pool& pool : pools_) {
    if (pool.arity == arity) return pool;
  }
  pools_.push_back(Pool{arity, {}});
  return pools_.back();
}

void SilentPadSender::stage_to(net::Endpoint& channel, std::size_t arity,
                               std::size_t count) {
  std::unique_lock lk(mu_);
  if (aborted_) fail_aborted();
  detail::require(ready_, "silent ot: stage before seed agreement");
  for (;;) {
    Ledger& led = ledger_for(arity);
    if (led.staged - led.consumed >= count) break;
    const std::size_t rows = block_rows_for(count - (led.staged - led.consumed));
    detail::require(next_row_ + rows <= kSilentDomainRows,
                    "silent ot: pad domain exhausted");
    const std::uint64_t expect_first = next_row_;
    lk.unlock();
    Bytes msg = channel.recv();
    lk.lock();
    if (aborted_) fail_aborted();
    ByteReader rd(msg);
    const std::uint32_t block_arity = rd.u32();
    const std::uint64_t first_row = rd.u64();
    const std::uint32_t block_count = rd.u32();
    detail::require(block_arity == arity && first_row == expect_first &&
                        block_count == rows,
                    "silent ot: correction block disagrees with ledger");
    PendingBlock block;
    block.arity = arity;
    block.first_row = first_row;
    block.count = block_count;
    block.u = rd.raw(static_cast<std::size_t>(block_count) * kSilentRowBytes);
    rd.expect_end();
    pending_.push_back(std::move(block));
    ledger_for(arity).staged += rows;
    next_row_ += rows;
  }
}

std::vector<PrecomputedSendSlot> SilentPadSender::expand_block(
    const PendingBlock& block) const {
  const std::uint64_t l0 = block.first_row / kSilentRowsPerLeaf;
  const std::uint64_t l1 = (block.first_row + block.count +
                            kSilentRowsPerLeaf - 1) /
                           kSilentRowsPerLeaf;
  const std::size_t leaf_span = static_cast<std::size_t>(l1 - l0);
  // Column-major keystream t^{Delta_j}_j for this block's leaf window,
  // expanded frontier-style per column.
  PPDS_SECRET std::vector<Bytes> columns(kSilentColumns);
  for (std::size_t j = 0; j < kSilentColumns; ++j) {
    columns[j].resize(leaf_span * sizeof(Digest));
    trees_[j].expand_range(l0, l1, [&](std::uint64_t idx, const Digest& leaf) {
      std::memcpy(columns[j].data() +
                      static_cast<std::size_t>(idx - l0) * sizeof(Digest),
                  leaf.data(), sizeof(Digest));
    });
  }
  const auto& codes = silent_codewords();
  std::vector<PrecomputedSendSlot> out(block.count);
  for (std::size_t r = 0; r < block.count; ++r) {
    const std::uint64_t abs_row = block.first_row + r;
    const std::size_t bit_off =
        static_cast<std::size_t>(abs_row - l0 * kSilentRowsPerLeaf);
    // Bit transpose: row r of the 128 column streams.
    PPDS_SECRET SilentRow t_row{};
    for (std::size_t j = 0; j < kSilentColumns; ++j) {
      const std::uint8_t bit =
          (columns[j][bit_off >> 3] >> (bit_off & 7)) & 1U;
      t_row[j >> 3] |= static_cast<std::uint8_t>(bit << (j & 7));
    }
    // Q_r = t^{Delta}_r XOR (Delta AND u_r).
    const std::uint8_t* u_row = block.u.data() + r * kSilentRowBytes;
    PPDS_SECRET SilentRow q{};
    for (std::size_t i = 0; i < kSilentRowBytes; ++i) {
      q[i] = static_cast<std::uint8_t>(t_row[i] ^ (delta_[i] & u_row[i]));
    }
    out[r].pads.resize(block.arity);
    PPDS_SECRET SilentRow masked{};
    for (std::size_t v = 0; v < block.arity; ++v) {
      for (std::size_t i = 0; i < kSilentRowBytes; ++i) {
        masked[i] = static_cast<std::uint8_t>(q[i] ^ (codes[v][i] & delta_[i]));
      }
      PPDS_SECRET Digest pad = silent_row_pad(abs_row, masked);
      out[r].pads[v].assign(pad.begin(), pad.end());
      secure_wipe(std::span(pad));
    }
    secure_wipe(std::span(masked));
    secure_wipe(std::span(t_row));
    secure_wipe(std::span(q));
  }
  for (Bytes& column : columns) secure_wipe(std::span(column));
  return out;
}

PrecomputedSendSlot SilentPadSender::take(std::size_t arity) {
  std::lock_guard lk(mu_);
  if (aborted_) fail_aborted();
  Ledger& led = ledger_for(arity);
  detail::require(led.consumed < led.staged,
                  "silent ot: take outruns the staged ledger");
  // Staged blocks expand in wire order, whatever their arity, until this
  // arity's pool holds the slot the ledger promised.
  while (pool_for(arity).slots.empty()) {
    detail::require(!pending_.empty(), "silent ot: ledger without a block");
    ++sync_expansions_;
    PendingBlock block = std::move(pending_.front());
    pending_.pop_front();
    std::vector<PrecomputedSendSlot> slots = expand_block(block);
    secure_wipe(std::span(block.u));
    Pool& pool = pool_for(block.arity);
    for (PrecomputedSendSlot& slot : slots) {
      pool.slots.push_back(std::move(slot));
    }
  }
  Pool& pool = pool_for(arity);
  PrecomputedSendSlot slot = std::move(pool.slots.front());
  pool.slots.pop_front();
  ledger_for(arity).consumed += 1;
  return slot;
}

std::size_t SilentPadSender::ledger_available(std::size_t arity) const {
  std::lock_guard lk(mu_);
  for (const Ledger& led : ledgers_) {
    if (led.arity == arity) return led.staged - led.consumed;
  }
  return 0;
}

std::size_t SilentPadSender::ledger_available() const {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  for (const Ledger& led : ledgers_) total += led.staged - led.consumed;
  return total;
}

void SilentPadSender::abort() noexcept {
  {
    std::lock_guard lk(mu_);
    aborted_ = true;
    wipe_secrets();
  }
  audit_abort(*this);
}

bool SilentPadSender::aborted() const {
  std::lock_guard lk(mu_);
  return aborted_;
}

bool SilentPadSender::frontier_clean() const {
  std::lock_guard lk(mu_);
  for (const GgmTree& tree : trees_) {
    if (!tree.wiped()) return false;
  }
  for (std::uint8_t b : delta_) {
    // Post-abort audit scan over the zeroed choice mask.
    // taint: allow(secret-branch)
    if (b != 0) return false;
  }
  return true;
}

bool SilentPadSender::pads_clean() const {
  std::lock_guard lk(mu_);
  if (!pending_.empty()) return false;
  for (const Pool& pool : pools_) {
    for (const PrecomputedSendSlot& slot : pool.slots) {
      for (const Bytes& pad : slot.pads) {
        for (std::uint8_t b : pad) {
          // Post-abort audit scan over zeroed pads (dead key material).
          // taint: allow(secret-branch)
          if (b != 0) return false;
        }
      }
    }
  }
  return true;
}

std::uint64_t SilentPadSender::sync_expansions() const {
  std::lock_guard lk(mu_);
  return sync_expansions_;
}

/// --- Receiver half -----------------------------------------------------------

SilentPadReceiver::SilentPadReceiver(const DhGroup& group, Rng& rng)
    : group_(group), rng_(rng) {}

SilentPadReceiver::~SilentPadReceiver() {
  std::lock_guard lk(mu_);
  wipe_secrets();
}

void SilentPadReceiver::wipe_secrets() noexcept {
  for (GgmTree& tree : trees0_) tree.wipe();
  for (GgmTree& tree : trees1_) tree.wipe();
  // The Prg destructor wipes the choice seed and its buffered block.
  choice_prg_.reset();
  for (RowMaterial& mat : material_) {
    secure_wipe(std::span(mat.t0));
    secure_wipe(std::span(mat.ubase));
  }
  material_.clear();
  for (Pool& pool : pools_) {
    for (PrecomputedRecvSlot& slot : pool.slots) wipe_slot(slot);
  }
  for (Ledger& led : ledgers_) led.consumed = led.staged;
}

void SilentPadReceiver::reserve(net::Endpoint& channel, std::size_t arity,
                                std::size_t count) {
  if (aborted()) fail_aborted();
  check_slot_arity(arity);
  ensure_ready(channel);
  stage_to(channel, arity, count);
}

std::vector<Bytes> SilentPadReceiver::receive(
    net::Endpoint& channel, std::span<const std::size_t> indices,
    std::size_t n, std::size_t message_len) {
  if (aborted()) fail_aborted();
  detail::require(!indices.empty() && indices.size() <= n, "ot: bad indices");
  detail::require(n <= kMaxDirectArity,
                  "ot: transfer arity above kMaxDirectArity");
  for (std::size_t index : indices) {
    detail::require(index < n, "ot_1ofn: index out of range");
  }
  std::vector<Bytes> out;
  out.reserve(indices.size());
  if (n == 1) {
    for (std::size_t i = 0; i < indices.size(); ++i) {
      out.push_back(channel.recv());
    }
    return out;
  }
  ensure_ready(channel);
  if (ledger_available(n) < indices.size() + kSilentLeadSlots) {
    stage_to(channel, n, indices.size() + kSilentLeadSlots);
  }
  for (std::size_t index : indices) {
    PrecomputedRecvSlot slot = take(n);
    const ScopedWipeSlot slot_guard(slot);
    out.push_back(precomputed_receive_1ofn(channel, slot, index, message_len));
  }
  return out;
}

void SilentPadReceiver::ensure_ready(net::Endpoint& channel) {
  {
    std::lock_guard lk(mu_);
    if (aborted_) fail_aborted();
    if (ready_) return;
  }
  // Role flip: the pad-receiver is the base-OT SENDER and keeps BOTH
  // 32-byte seeds per column, hence both keystream trees.
  auto base_slots =
      precompute_ot_sender(channel, group_, kSilentColumns, 32, rng_);
  const ScopedWipeSlot base_guard(base_slots);
  std::vector<GgmTree> trees0;  // ~GgmTree wipes each root
  std::vector<GgmTree> trees1;
  trees0.reserve(kSilentColumns);
  trees1.reserve(kSilentColumns);
  for (std::size_t j = 0; j < kSilentColumns; ++j) {
    detail::require(base_slots[j].pads.size() == 2 &&
                        base_slots[j].pads[0].size() == sizeof(Digest) &&
                        base_slots[j].pads[1].size() == sizeof(Digest),
                    "silent ot: bad base seed pair");
    PPDS_SECRET Digest root{};
    std::memcpy(root.data(), base_slots[j].pads[0].data(), sizeof(Digest));
    trees0.emplace_back(root, kSilentTreeDepth);
    std::memcpy(root.data(), base_slots[j].pads[1].data(), sizeof(Digest));
    trees1.emplace_back(root, kSilentTreeDepth);
    secure_wipe(std::span(root));
  }
  // Seed the secret choice stream from the session rng.
  PPDS_SECRET Digest choice_seed{};
  const ScopedWipe choice_seed_guard(choice_seed);
  rng_.fill_bytes(std::span(choice_seed));
  std::lock_guard lk(mu_);
  // See SilentPadSender::ensure_ready: an abort() during the seed agreement
  // leaves nothing live behind.
  if (aborted_) fail_aborted();
  trees0_ = std::move(trees0);
  trees1_ = std::move(trees1);
  choice_prg_.emplace(choice_seed);
  ready_ = true;
}

SilentPadReceiver::Ledger& SilentPadReceiver::ledger_for(std::size_t arity) {
  for (Ledger& led : ledgers_) {
    if (led.arity == arity) return led;
  }
  ledgers_.push_back(Ledger{arity, 0, 0});
  return ledgers_.back();
}

SilentPadReceiver::Pool& SilentPadReceiver::pool_for(std::size_t arity) {
  for (Pool& pool : pools_) {
    if (pool.arity == arity) return pool;
  }
  pools_.push_back(Pool{arity, {}});
  return pools_.back();
}

std::uint64_t SilentPadReceiver::material_through() const {
  return material_from_ + material_.size();
}

void SilentPadReceiver::expand_next_chunk() {
  const std::uint64_t through = material_through();
  detail::require(through % kSilentRowsPerLeaf == 0,
                  "silent ot: material tail misaligned");
  const std::uint64_t chunk = through / kSilentRowsPerLeaf;
  detail::require(chunk < (std::uint64_t{1} << kSilentTreeDepth),
                  "silent ot: pad domain exhausted");
  const std::size_t first = material_.size();
  material_.resize(first + kSilentRowsPerLeaf);
  for (std::size_t j = 0; j < kSilentColumns; ++j) {
    PPDS_SECRET Digest leaf0 = trees0_[j].leaf(chunk);
    PPDS_SECRET Digest leaf1 = trees1_[j].leaf(chunk);
    for (std::size_t r = 0; r < kSilentRowsPerLeaf; ++r) {
      const std::uint8_t bit0 = (leaf0[r >> 3] >> (r & 7)) & 1U;
      const std::uint8_t bit1 = (leaf1[r >> 3] >> (r & 7)) & 1U;
      RowMaterial& mat = material_[first + r];
      mat.t0[j >> 3] |= static_cast<std::uint8_t>(bit0 << (j & 7));
      mat.ubase[j >> 3] |= static_cast<std::uint8_t>((bit0 ^ bit1) << (j & 7));
    }
    secure_wipe(std::span(leaf0));
    secure_wipe(std::span(leaf1));
  }
}

void SilentPadReceiver::stage_to(net::Endpoint& channel, std::size_t arity,
                                 std::size_t count) {
  std::unique_lock lk(mu_);
  if (aborted_) fail_aborted();
  detail::require(ready_, "silent ot: stage before seed agreement");
  for (;;) {
    Ledger& led = ledger_for(arity);
    if (led.staged - led.consumed >= count) break;
    const std::size_t rows = block_rows_for(count - (led.staged - led.consumed));
    detail::require(next_row_ + rows <= kSilentDomainRows,
                    "silent ot: pad domain exhausted");
    // Stage consumes row material strictly in row order.
    detail::require(material_from_ == next_row_,
                    "silent ot: material cursor desynchronized");
    while (material_through() < next_row_ + rows) {
      ++sync_expansions_;
      expand_next_chunk();
    }
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(arity));
    w.u64(next_row_);
    w.u32(static_cast<std::uint32_t>(rows));
    std::span<std::uint8_t> u_out = w.append_raw(rows * kSilentRowBytes);
    Pool& pool = pool_for(arity);
    for (std::size_t r = 0; r < rows; ++r) {
      RowMaterial mat = material_.front();
      material_.pop_front();
      const std::uint64_t abs_row = material_from_;
      ++material_from_;
      const std::uint32_t alpha = bounded_choice(choice_prg_->next_u64(),
                                                 arity);
      PPDS_SECRET SilentRow code = silent_codeword_ct(alpha);
      for (std::size_t i = 0; i < kSilentRowBytes; ++i) {
        u_out[r * kSilentRowBytes + i] =
            static_cast<std::uint8_t>(mat.ubase[i] ^ code[i]);
      }
      PPDS_SECRET Digest pad = silent_row_pad(abs_row, mat.t0);
      PrecomputedRecvSlot slot;
      slot.choice = alpha;
      slot.arity = static_cast<std::uint32_t>(arity);
      slot.pad.assign(pad.begin(), pad.end());
      pool.slots.push_back(std::move(slot));
      secure_wipe(std::span(pad));
      secure_wipe(std::span(code));
      secure_wipe(std::span(mat.t0));
      secure_wipe(std::span(mat.ubase));
    }
    ledger_for(arity).staged += rows;
    next_row_ += rows;
    Bytes msg = w.take();
    lk.unlock();
    channel.send(PPDS_DECLASSIFY(
        msg,
        "correction block u_r = t0_r ^ t1_r ^ C(alpha_r): one-time masked "
        "by the t1 (resp. t0) keystream the sender is missing on every "
        "column where Delta_j = 0 (resp. 1), so u reveals nothing about "
        "alpha without Delta"));
    lk.lock();
    if (aborted_) fail_aborted();
  }
}

PrecomputedRecvSlot SilentPadReceiver::take(std::size_t arity) {
  std::unique_lock lk(mu_);
  if (aborted_) fail_aborted();
  Ledger& led = ledger_for(arity);
  detail::require(led.consumed < led.staged,
                  "silent ot: take outruns the staged ledger");
  Pool& pool = pool_for(arity);
  // Receiver slots are built at staging time, so the ledger guarantee means
  // the pool is never empty here.
  PrecomputedRecvSlot slot = std::move(pool.slots.front());
  pool.slots.pop_front();
  led.consumed += 1;
  return slot;
}

std::size_t SilentPadReceiver::ledger_available(std::size_t arity) const {
  std::lock_guard lk(mu_);
  for (const Ledger& led : ledgers_) {
    if (led.arity == arity) return led.staged - led.consumed;
  }
  return 0;
}

std::size_t SilentPadReceiver::ledger_available() const {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  for (const Ledger& led : ledgers_) total += led.staged - led.consumed;
  return total;
}

void SilentPadReceiver::abort() noexcept {
  {
    std::lock_guard lk(mu_);
    aborted_ = true;
    wipe_secrets();
  }
  audit_abort(*this);
}

bool SilentPadReceiver::aborted() const {
  std::lock_guard lk(mu_);
  return aborted_;
}

bool SilentPadReceiver::frontier_clean() const {
  std::lock_guard lk(mu_);
  for (const GgmTree& tree : trees0_) {
    if (!tree.wiped()) return false;
  }
  for (const GgmTree& tree : trees1_) {
    if (!tree.wiped()) return false;
  }
  return !choice_prg_.has_value();
}

bool SilentPadReceiver::pads_clean() const {
  std::lock_guard lk(mu_);
  if (!material_.empty()) return false;
  for (const Pool& pool : pools_) {
    for (const PrecomputedRecvSlot& slot : pool.slots) {
      for (std::uint8_t b : slot.pad) {
        // Post-abort audit scan over zeroed pads (dead key material).
        // taint: allow(secret-branch)
        if (b != 0) return false;
      }
    }
  }
  return true;
}

std::uint64_t SilentPadReceiver::sync_expansions() const {
  std::lock_guard lk(mu_);
  return sync_expansions_;
}

}  // namespace ppds::crypto
