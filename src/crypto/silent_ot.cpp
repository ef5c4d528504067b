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
  for (GgmTree& tree : trees_) tree.wipe();
  secure_wipe(std::span(delta_));
  for (PendingBlock& block : pending_) secure_wipe(std::span(block.u));
  for (Pool& pool : pools_) {
    for (PrecomputedSendSlot& slot : pool.slots) {
      for (Bytes& pad : slot.pads) secure_wipe(std::span(pad));
    }
  }
}

void SilentPadSender::ensure_ready(net::Endpoint& channel) {
  {
    std::lock_guard lk(mu_);
    if (aborted_) throw ProtocolError("silent ot: aborted engine");
    if (ready_) return;
  }
  // Role flip: the pad-sender is the base-OT RECEIVER, ending up with one
  // seed per column plus the secret choice bit Delta_j. One amortized round
  // trip of kSilentColumns 1-of-2 transfers is the engine's entire
  // public-key bill.
  NaorPinkasReceiver base(group_, rng_);
  auto base_slots =
      precompute_ot_receiver(channel, base, kSilentColumns, 32, rng_);
  std::vector<GgmTree> trees;
  trees.reserve(kSilentColumns);
  PPDS_SECRET SilentRow delta{};
  for (std::size_t j = 0; j < kSilentColumns; ++j) {
    delta[j >> 3] |= static_cast<std::uint8_t>((base_slots[j].choice & 1U)
                                               << (j & 7));
    PPDS_SECRET Digest root{};
    detail::require(base_slots[j].pad.size() == sizeof(Digest),
                    "silent ot: bad base seed length");
    std::memcpy(root.data(), base_slots[j].pad.data(), sizeof(Digest));
    trees.emplace_back(root, kSilentTreeDepth);
    secure_wipe(std::span(root));
    secure_wipe(std::span(base_slots[j].pad));
    base_slots[j].choice = 0;
  }
  std::lock_guard lk(mu_);
  trees_ = std::move(trees);
  delta_ = delta;
  secure_wipe(std::span(delta));
  ready_ = true;
}

bool SilentPadSender::ready() const {
  std::lock_guard lk(mu_);
  return ready_;
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
  if (aborted_) throw ProtocolError("silent ot: aborted engine");
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
    if (aborted_) throw ProtocolError("silent ot: aborted engine");
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
  if (aborted_) throw ProtocolError("silent ot: aborted engine");
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

std::size_t SilentPadSender::ledger_available_total() const {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  for (const Ledger& led : ledgers_) total += led.staged - led.consumed;
  return total;
}

void SilentPadSender::abort() noexcept {
  std::lock_guard lk(mu_);
  aborted_ = true;
  // Zero every live secret: frontier seeds, the column-choice mask, staged
  // correction bytes and unconsumed pads.
  for (GgmTree& tree : trees_) tree.wipe();
  secure_wipe(std::span(delta_));
  for (PendingBlock& block : pending_) secure_wipe(std::span(block.u));
  pending_.clear();
  for (Pool& pool : pools_) {
    for (PrecomputedSendSlot& slot : pool.slots) {
      for (Bytes& pad : slot.pads) secure_wipe(std::span(pad));
    }
  }
  for (Ledger& led : ledgers_) led.consumed = led.staged;
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
  for (GgmTree& tree : trees0_) tree.wipe();
  for (GgmTree& tree : trees1_) tree.wipe();
  for (RowMaterial& mat : material_) {
    secure_wipe(std::span(mat.t0));
    secure_wipe(std::span(mat.ubase));
  }
  for (Pool& pool : pools_) {
    for (PrecomputedRecvSlot& slot : pool.slots) {
      secure_wipe(std::span(slot.pad));
      slot.choice = 0;
    }
  }
}

void SilentPadReceiver::ensure_ready(net::Endpoint& channel) {
  {
    std::lock_guard lk(mu_);
    if (aborted_) throw ProtocolError("silent ot: aborted engine");
    if (ready_) return;
  }
  // Role flip: the pad-receiver is the base-OT SENDER and keeps BOTH
  // 32-byte seeds per column, hence both keystream trees.
  NaorPinkasSender base(group_, rng_);
  auto base_slots =
      precompute_ot_sender(channel, base, kSilentColumns, 32, rng_);
  std::vector<GgmTree> trees0;
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
    secure_wipe(std::span(base_slots[j].pads[0]));
    secure_wipe(std::span(base_slots[j].pads[1]));
  }
  // Seed the secret choice stream from the session rng.
  PPDS_SECRET Digest choice_seed{};
  rng_.fill_bytes(std::span(choice_seed));
  std::lock_guard lk(mu_);
  trees0_ = std::move(trees0);
  trees1_ = std::move(trees1);
  choice_prg_.emplace(choice_seed);
  secure_wipe(std::span(choice_seed));
  ready_ = true;
}

bool SilentPadReceiver::ready() const {
  std::lock_guard lk(mu_);
  return ready_;
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
  if (aborted_) throw ProtocolError("silent ot: aborted engine");
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
    if (aborted_) throw ProtocolError("silent ot: aborted engine");
  }
}

PrecomputedRecvSlot SilentPadReceiver::take(std::size_t arity) {
  std::unique_lock lk(mu_);
  if (aborted_) throw ProtocolError("silent ot: aborted engine");
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

std::size_t SilentPadReceiver::ledger_available_total() const {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  for (const Ledger& led : ledgers_) total += led.staged - led.consumed;
  return total;
}

void SilentPadReceiver::abort() noexcept {
  std::lock_guard lk(mu_);
  aborted_ = true;
  for (GgmTree& tree : trees0_) tree.wipe();
  for (GgmTree& tree : trees1_) tree.wipe();
  for (RowMaterial& mat : material_) {
    secure_wipe(std::span(mat.t0));
    secure_wipe(std::span(mat.ubase));
  }
  material_.clear();
  for (Pool& pool : pools_) {
    for (PrecomputedRecvSlot& slot : pool.slots) {
      secure_wipe(std::span(slot.pad));
      slot.choice = 0;
    }
  }
  for (Ledger& led : ledgers_) led.consumed = led.staged;
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
  return true;
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
