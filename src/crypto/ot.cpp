#include "ppds/crypto/ot.hpp"

#include <algorithm>
#include <array>

#include "ppds/common/ct.hpp"
#include "ppds/common/error.hpp"
#include "ppds/crypto/prg.hpp"
#include "ppds/crypto/reservoir.hpp"
#include "ppds/crypto/silent_ot.hpp"

namespace ppds::crypto {

namespace {

std::size_t bits_for(std::size_t n) {
  // Callers handle n <= 1 before the bit decomposition; without this guard
  // `n - 1` underflows to SIZE_MAX for n == 0 and the answer silently
  // becomes 64.
  detail::require(n >= 2, "ot: bits_for requires n >= 2");
  std::size_t bits = 0;
  std::size_t v = n - 1;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return std::max<std::size_t>(bits, 1);
}

void wipe_key_pairs(std::vector<std::array<Bytes, 2>>& keys) {
  for (auto& pair : keys) {
    secure_wipe(std::span(pair[0]));
    secure_wipe(std::span(pair[1]));
  }
}

void wipe_all(std::vector<Bytes>& buffers) {
  for (Bytes& b : buffers) secure_wipe(std::span(b));
}

void check_equal_lengths(std::span<const Bytes> messages) {
  detail::require(!messages.empty(), "ot: no messages");
  const std::size_t len = messages.front().size();
  for (const Bytes& m : messages) {
    detail::require(m.size() == len, "ot: unequal message lengths");
  }
}

/// Shared 1-out-of-n sender body (bit-decomposition construction). The
/// key-transfer primitive is supplied by the engine: real Naor-Pinkas
/// 1-out-of-2 OTs or precomputed Beaver slots. \p transfer_keys is called
/// once per index bit with (key0, key1).
template <typename TransferKeys>
void send_1ofn_impl(net::Endpoint& channel, std::span<const Bytes> messages,
                    Rng& rng, TransferKeys&& transfer_keys) {
  const std::size_t n = messages.size();
  const std::size_t nbits = bits_for(n);

  PPDS_SECRET std::vector<std::array<Bytes, 2>> keys(nbits);
  for (auto& pair : keys) {
    for (int side = 0; side < 2; ++side) {
      Bytes& key = pair[side];
      key.resize(32);
      rng.fill_bytes(std::span(key));
    }
  }

  ByteWriter w;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Bytes> parts;
    parts.reserve(nbits + 1);
    for (std::size_t j = 0; j < nbits; ++j) {
      parts.push_back(keys[j][(i >> j) & 1]);
    }
    Bytes idx(8);
    for (int b = 0; b < 8; ++b) idx[b] = static_cast<std::uint8_t>(i >> (8 * b));
    parts.push_back(idx);
    w.raw(xor_pad(sha256_tagged(parts), messages[i]));
  }
  channel.send(w.take());

  for (std::size_t j = 0; j < nbits; ++j) {
    transfer_keys(keys[j][0], keys[j][1]);
  }
  wipe_key_pairs(keys);
}

/// Shared 1-out-of-n receiver body. \p transfer_key is called once per
/// index bit with the wanted choice bit and must return the 32-byte key.
template <typename TransferKey>
Bytes receive_1ofn_impl(net::Endpoint& channel, std::size_t index,
                        std::size_t n, std::size_t message_len,
                        TransferKey&& transfer_key) {
  const std::size_t nbits = bits_for(n);

  const Bytes ciphertexts = channel.recv();
  detail::require(ciphertexts.size() == n * message_len,
                  "ot_1ofn: bad ciphertext bundle");

  std::vector<Bytes> parts;
  parts.reserve(nbits + 1);
  for (std::size_t j = 0; j < nbits; ++j) {
    parts.push_back(transfer_key(((index >> j) & 1) != 0));
  }
  Bytes idx(8);
  for (int b = 0; b < 8; ++b) idx[b] = static_cast<std::uint8_t>(index >> (8 * b));
  parts.push_back(idx);

  Bytes cipher(ciphertexts.begin() + static_cast<std::ptrdiff_t>(index * message_len),
               ciphertexts.begin() + static_cast<std::ptrdiff_t>((index + 1) * message_len));
  PPDS_SECRET Digest pad_key = sha256_tagged(parts);
  wipe_all(parts);
  Bytes plain = xor_pad(pad_key, cipher);
  secure_wipe(std::span(pad_key));
  return plain;
}

}  // namespace

/// --- Naor-Pinkas 1-out-of-2 --------------------------------------------------
///
/// Sender:   C random element --> receiver
/// Receiver: secret x; PK_choice = g^x, PK_other = C * PK_choice^{-1};
///           sends PK_0.
/// Sender:   PK_1 = C * PK_0^{-1}; random r; sends g^r,
///           E_b = m_b XOR PRG(H(PK_b^r, b)).
/// Receiver: key = (g^r)^x decrypts E_choice.

void NaorPinkasSender::send_1of2(net::Endpoint& channel, const Bytes& m0,
                                 const Bytes& m1) {
  detail::require(m0.size() == m1.size(), "ot_1of2: unequal message lengths");
  const mpz_class c = group_.random_element(rng_);
  channel.send(group_.serialize(c));

  const Bytes pk0_bytes = channel.recv();
  const mpz_class pk0 = group_.deserialize(pk0_bytes);

  const mpz_class r = group_.random_exponent(rng_);
  ByteWriter w;
  w.raw(group_.serialize(group_.pow_g(r)));
  w.raw(xor_pad(group_.hash_to_key(group_.pow(pk0, r), 0), m0));
  // PK_1^r = (C / PK_0)^r = C^r * PK_0^{q-r}: one joint multi-exponentiation
  // instead of an inversion plus a second full exponentiation. (PK_0 has
  // order q for honest receivers, so PK_0^{q-r} == PK_0^{-r}; the model is
  // semi-honest.)
  const std::array<mpz_class, 2> bases{c, pk0};
  const std::array<mpz_class, 2> exps{r, group_.q() - r};
  w.raw(xor_pad(group_.hash_to_key(group_.multi_exp(bases, exps), 1), m1));
  channel.send(w.take());
}

Bytes NaorPinkasReceiver::receive_1of2(net::Endpoint& channel,
                                       PPDS_SECRET bool choice,
                                       std::size_t message_len) {
  const mpz_class c = group_.deserialize(channel.recv());

  const mpz_class x = group_.random_exponent(rng_);
  const mpz_class pk_choice = group_.pow_g(x);
  const mpz_class pk_other = group_.mul(c, group_.invert(pk_choice));
  channel.send(PPDS_DECLASSIFY(
      group_.serialize(choice ? pk_other : pk_choice),
      "blinded key: pk_other = C * pk_choice^-1, so the pair (PK_0) sent is "
      "uniform regardless of choice; recovering choice needs CDH"));

  const Bytes reply = channel.recv();
  ByteReader rd(reply);
  const mpz_class gr = group_.deserialize(rd.raw(group_.element_bytes()));
  const Bytes e0 = rd.raw(message_len);
  const Bytes e1 = rd.raw(message_len);
  rd.expect_end();

  const Digest key =
      group_.hash_to_key(group_.pow(gr, x), choice ? 1 : 0);
  return xor_pad(key, choice ? e1 : e0);
}

/// --- Naor-Pinkas 1-out-of-n ---------------------------------------------------
///
/// Sender draws pad keys K_{j,0}, K_{j,1} for each index bit j, encrypts
/// message i under SHA256(K_{1,i_1} || ... || K_{l,i_l} || i), ships all n
/// ciphertexts, then the parties run l = ceil(log2 n) 1-out-of-2 OTs on the
/// keys (Naor-Pinkas construction).

void NaorPinkasSender::send_1ofn(net::Endpoint& channel,
                                 std::span<const Bytes> messages) {
  check_equal_lengths(messages);
  if (messages.size() == 1) {
    channel.send(messages.front());
    return;
  }
  send_1ofn_impl(channel, messages, rng_, [&](const Bytes& k0, const Bytes& k1) {
    send_1of2(channel, k0, k1);
  });
}

Bytes NaorPinkasReceiver::receive_1ofn(net::Endpoint& channel,
                                       std::size_t index, std::size_t n,
                                       std::size_t message_len) {
  detail::require(index < n, "ot_1ofn: index out of range");
  if (n == 1) return channel.recv();
  return receive_1ofn_impl(channel, index, n, message_len, [&](bool choice) {
    return receive_1of2(channel, choice, 32);
  });
}

/// --- k-out-of-n on top --------------------------------------------------------

void NaorPinkasSender::send(net::Endpoint& channel,
                            std::span<const Bytes> messages, std::size_t k) {
  check_equal_lengths(messages);
  detail::require(k >= 1 && k <= messages.size(), "ot: bad k");
  for (std::size_t i = 0; i < k; ++i) {
    send_1ofn(channel, messages);
  }
}

std::vector<Bytes> NaorPinkasReceiver::receive(
    net::Endpoint& channel, std::span<const std::size_t> indices,
    std::size_t n, std::size_t message_len) {
  detail::require(!indices.empty() && indices.size() <= n, "ot: bad indices");
  std::vector<Bytes> out;
  out.reserve(indices.size());
  for (std::size_t index : indices) {
    out.push_back(receive_1ofn(channel, index, n, message_len));
  }
  return out;
}

/// --- Loopback engine ----------------------------------------------------------

void LoopbackSender::send(net::Endpoint& channel,
                          std::span<const Bytes> messages, std::size_t k) {
  check_equal_lengths(messages);
  detail::require(k >= 1 && k <= messages.size(), "ot: bad k");
  ByteWriter w;
  for (const Bytes& m : messages) w.raw(m);
  channel.send(w.take());
}

std::vector<Bytes> LoopbackReceiver::receive(
    net::Endpoint& channel, std::span<const std::size_t> indices,
    std::size_t n, std::size_t message_len) {
  const Bytes bundle = channel.recv();
  detail::require(bundle.size() == n * message_len,
                  "loopback ot: bad bundle size");
  std::vector<Bytes> out;
  out.reserve(indices.size());
  for (std::size_t index : indices) {
    detail::require(index < n, "loopback ot: index out of range");
    out.emplace_back(
        bundle.begin() + static_cast<std::ptrdiff_t>(index * message_len),
        bundle.begin() + static_cast<std::ptrdiff_t>((index + 1) * message_len));
  }
  return out;
}

std::size_t index_bits(std::size_t n) {
  return n <= 1 ? 0 : bits_for(n);
}

/// --- Batched amortized precomputation -------------------------------------------
///
/// One round trip fills N slots (Naor-Pinkas amortization): the sender
/// reuses a single (C_1..C_{n-1} = g^{a_j}, g^r) tuple for the whole batch,
/// the receiver answers with all N blinded keys in one bundle, and the
/// random pads are DERIVED as H(shared_secret, n*i + j) rather than chosen
/// and encrypted — there is no third message. Per slot the sender pays one
/// full exponentiation (u = PK_0^r; pad j > 0 falls out as C_j^r * u^{-1}
/// with the u^{-1} batch-inverted across the whole bundle) and the receiver
/// two table-served ones (g^x and (g^r)^x via a per-batch window table for
/// g^r). Semi-honest security follows from the original construction: the
/// receiver cannot compute two H inputs without solving CDH for (C_j, g^r),
/// and the per-slot tag keeps pads independent. Arity 2 reproduces the
/// legacy 1-out-of-2 batch byte for byte.

std::vector<PrecomputedSendSlot> precompute_ot_sender(
    net::Endpoint& channel, NaorPinkasSender& sender, std::size_t count,
    std::size_t pad_len, Rng& rng, std::size_t arity) {
  detail::require(pad_len >= 1 && pad_len <= 32,
                  "precompute ot: pad_len must be in [1, 32]");
  detail::require(arity >= 2 && arity <= kMaxDirectArity,
                  "precompute ot: arity must be in [2, kMaxDirectArity]");
  std::vector<PrecomputedSendSlot> slots(count);
  for (PrecomputedSendSlot& slot : slots) slot.pads.resize(arity);
  if (count == 0) return slots;
  const DhGroup& group = sender.group();

  // a_1..a_{n-1} before r: arity 2 draws (a, r) in the legacy order, so
  // seeded offline transcripts are unchanged.
  std::vector<mpz_class> a(arity - 1);
  for (mpz_class& aj : a) aj = group.random_exponent(rng);
  const mpz_class r = group.random_exponent(rng);

  ByteWriter announce;
  for (const mpz_class& aj : a) announce.raw(group.serialize(group.pow_g(aj)));
  const mpz_class gr = group.pow_g(r);
  announce.raw(group.serialize(gr));
  channel.send(PPDS_DECLASSIFY(
      announce.take(),
      "announce = (C_1..C_{n-1}, g^r): Naor-Pinkas public keys; the "
      "exponents never leave the sender and recovering them is DLOG"));

  // C_j^r = g^{a_j * r mod q}: the sender knows both exponents, so even
  // these stay on the fixed-base path.
  std::vector<mpz_class> c_r(arity - 1);
  for (std::size_t j = 0; j + 1 < arity; ++j) {
    c_r[j] = group.pow_g(a[j] * r % group.q());
  }

  const Bytes bundle = channel.recv();
  ByteReader rd(bundle);
  std::vector<mpz_class> u(count);
  for (std::size_t i = 0; i < count; ++i) {
    const mpz_class pk0 = group.deserialize(rd.raw(group.element_bytes()));
    u[i] = group.pow(pk0, r);  // the one full exp per slot
  }
  rd.expect_end();
  // One Montgomery batch inversion replaces count per-slot inversions.
  std::vector<mpz_class> u_inv = u;
  group.batch_invert(u_inv);

  for (std::size_t i = 0; i < count; ++i) {
    PPDS_SECRET Digest k0 = group.hash_to_key(u[i], arity * i);
    slots[i].pads[0].assign(k0.begin(),
                            k0.begin() + static_cast<std::ptrdiff_t>(pad_len));
    secure_wipe(std::span(k0));
    for (std::size_t j = 1; j < arity; ++j) {
      PPDS_SECRET Digest kj =
          group.hash_to_key(group.mul(c_r[j - 1], u_inv[i]), arity * i + j);
      slots[i].pads[j].assign(
          kj.begin(), kj.begin() + static_cast<std::ptrdiff_t>(pad_len));
      secure_wipe(std::span(kj));
    }
  }
  return slots;
}

std::vector<PrecomputedRecvSlot> precompute_ot_receiver(
    net::Endpoint& channel, NaorPinkasReceiver& receiver, std::size_t count,
    std::size_t pad_len, Rng& rng, std::size_t arity) {
  detail::require(pad_len >= 1 && pad_len <= 32,
                  "precompute ot: pad_len must be in [1, 32]");
  detail::require(arity >= 2 && arity <= kMaxDirectArity,
                  "precompute ot: arity must be in [2, kMaxDirectArity]");
  std::vector<PrecomputedRecvSlot> slots(count);
  for (PrecomputedRecvSlot& slot : slots) {
    slot.arity = static_cast<std::uint32_t>(arity);
  }
  if (count == 0) return slots;
  const DhGroup& group = receiver.group();
  const std::size_t eb = group.element_bytes();

  const Bytes announce = channel.recv();
  detail::require(announce.size() == arity * eb,
                  "precompute ot: bad announce");
  // Flat view of C_1..C_{n-1}; g^r is the trailing element.
  const std::span<const std::uint8_t> c_flat(announce.data(),
                                             (arity - 1) * eb);
  const mpz_class gr =
      group.deserialize(std::span(announce).subspan((arity - 1) * eb, eb));

  // Window table for the batch-constant base g^r; the build costs a few
  // full exponentiations' worth of multiplies, so only bother for batches
  // that amortize it.
  std::unique_ptr<FixedBaseTable> gr_table;
  if (count >= 16) gr_table = group.make_table(gr);

  ByteWriter w;
  for (std::size_t i = 0; i < count; ++i) {
    PrecomputedRecvSlot& slot = slots[i];
    // One rng() word per slot whatever the arity. Arity 2 keeps the legacy
    // low-bit draw (seeded offline transcripts unchanged); larger arities
    // map the word to [0, arity) with a multiply-shift.
    const std::uint64_t word = rng();
    if (arity == 2) {
      slot.choice = static_cast<std::uint32_t>(word & 1);
    } else {
      __extension__ using u128 = unsigned __int128;
      slot.choice =
          static_cast<std::uint32_t>((static_cast<u128>(word) * arity) >> 64);
    }
    const mpz_class x = group.random_exponent(rng);
    const mpz_class gx = group.pow_g(x);
    const Bytes gx_bytes = group.serialize(gx);

    // Constant-time gather of C_idx over the whole announce. idx == choice
    // except for choice == 0, where idx = 1 is a dummy (the gathered
    // element is discarded by the select below) — every slot scans all
    // n - 1 elements and performs the same multiply/invert either way.
    const std::uint32_t idx =
        slot.choice + static_cast<std::uint32_t>(slot.choice == 0);
    Bytes sel(eb, 0);
    for (std::size_t j = 1; j < arity; ++j) {
      const std::uint8_t mask = static_cast<std::uint8_t>(
          0u - static_cast<unsigned>(j == idx));
      const std::size_t base = (j - 1) * eb;
      for (std::size_t b = 0; b < eb; ++b) sel[b] |= c_flat[base + b] & mask;
    }
    const Bytes blinded_bytes =
        group.serialize(group.mul(group.deserialize(sel), group.invert(gx)));

    // Byte-level constant-time select: announce g^x when choice == 0, the
    // blinded C_choice * g^{-x} otherwise.
    const std::uint8_t keep_gx = static_cast<std::uint8_t>(
        0u - static_cast<unsigned>(slot.choice == 0));
    Bytes pk(eb, 0);
    for (std::size_t b = 0; b < eb; ++b) {
      pk[b] = static_cast<std::uint8_t>((gx_bytes[b] & keep_gx) |
                                        (blinded_bytes[b] & ~keep_gx));
    }
    w.raw(PPDS_DECLASSIFY(
        pk,
        "blinded key: the announced PK_0 is g^x or C_choice * g^-x, either "
        "way uniform; recovering the choice index needs CDH"));

    const mpz_class shared = group.pow_with(gr_table.get(), gr, x);
    PPDS_SECRET Digest key = group.hash_to_key(shared, arity * i + slot.choice);
    slot.pad.assign(key.begin(),
                    key.begin() + static_cast<std::ptrdiff_t>(pad_len));
    secure_wipe(std::span(key));
  }
  channel.send(w.take());
  return slots;
}

void precomputed_send_1ofn(net::Endpoint& channel,
                           const PrecomputedSendSlot& slot,
                           std::span<const Bytes> messages) {
  const std::size_t n = slot.pads.size();
  detail::require(n >= 2, "precomputed ot: malformed slot");
  detail::require(messages.size() == n, "precomputed ot: arity mismatch");
  check_equal_lengths(messages);
  const std::size_t len = messages.front().size();
  detail::require(len >= 1 && len <= slot.pads.front().size(),
                  "precomputed ot: message longer than pad");

  // Receiver first announces the public correction shift
  // s = (index - choice) mod n.
  const Bytes shift_msg = channel.recv();
  detail::require(shift_msg.size() == 1, "precomputed ot: bad shift message");
  const std::size_t s = shift_msg[0];
  detail::require(s < n, "precomputed ot: shift out of range");

  ByteWriter w;
  for (std::size_t j = 0; j < n; ++j) {
    Bytes e = messages[j];
    // s is public (already declassified by the receiver): % is fine here.
    const Bytes& pad = slot.pads[(j + n - s) % n];
    for (std::size_t b = 0; b < len; ++b) e[b] ^= pad[b];
    w.raw(e);
  }
  channel.send(PPDS_DECLASSIFY(
      w.take(), "one-time-pad ciphertexts: each message is XORed with a "
                "fresh precomputed pad the receiver knows at most one of"));
}

Bytes precomputed_receive_1ofn(net::Endpoint& channel,
                               const PrecomputedRecvSlot& slot,
                               std::size_t index, std::size_t message_len) {
  const std::size_t n = slot.arity;
  detail::require(n >= 2, "precomputed ot: malformed slot");
  detail::require(index < n, "ot_1ofn: index out of range");
  detail::require(message_len >= 1 && message_len <= slot.pad.size(),
                  "precomputed ot: message longer than pad");

  // s = (index - choice) mod n without a secret modulo: choice < n, so a
  // single conditional subtraction folds the sum back into range.
  const std::size_t s_raw = index + n - slot.choice;
  const std::size_t s = s_raw - n * static_cast<std::size_t>(s_raw >= n);
  channel.send(PPDS_DECLASSIFY(
      Bytes{static_cast<std::uint8_t>(s)},
      "correction shift: s = index - choice mod n with a uniform "
      "precomputed choice is uniform and independent of the real index"));

  const Bytes reply = channel.recv();
  detail::require(reply.size() == n * message_len, "precomputed ot: bad reply");
  const std::size_t off = index * message_len;
  Bytes out(reply.begin() + static_cast<std::ptrdiff_t>(off),
            reply.begin() + static_cast<std::ptrdiff_t>(off + message_len));
  for (std::size_t i = 0; i < message_len; ++i) out[i] ^= slot.pad[i];
  return out;
}

void precomputed_send_1of2(net::Endpoint& channel,
                           const PrecomputedSendSlot& slot, const Bytes& m0,
                           const Bytes& m1) {
  const std::array<Bytes, 2> messages{m0, m1};
  precomputed_send_1ofn(channel, slot, messages);
}

Bytes precomputed_receive_1of2(net::Endpoint& channel,
                               const PrecomputedRecvSlot& slot,
                               PPDS_SECRET bool choice) {
  return precomputed_receive_1ofn(channel, slot,
                                  static_cast<std::size_t>(choice),
                                  slot.pad.size());
}

OtAbortAudit& ot_abort_audit() {
  static OtAbortAudit audit;
  return audit;
}

/// --- Batched session facade -----------------------------------------------------

namespace {

void wipe_send_slot(PrecomputedSendSlot& slot) {
  for (Bytes& pad : slot.pads) secure_wipe(std::span(pad));
}

void wipe_recv_slot(PrecomputedRecvSlot& slot) {
  secure_wipe(std::span(slot.pad));
  slot.choice = 0;
}

/// Bumps the pool cursor under the engine lock so available_slots() readers
/// on other threads always see a coherent level. Only the protocol thread
/// mutates, so the returned index stays valid after the lock drops.
template <typename Pool>
std::size_t take_index(std::mutex& mu, Pool& pool) {
  std::lock_guard lk(mu);
  return pool.next++;
}

}  // namespace

BatchedOtSender::BatchedOtSender(const DhGroup& group, Rng& rng,
                                 std::size_t refill_batch)
    : base_(group, rng),
      rng_(rng),
      refill_batch_(std::max<std::size_t>(refill_batch, 1)) {}

BatchedOtSender::~BatchedOtSender() {
  // unique_ptr destruction detaches any reservoir and wipes the silent
  // engine's own state (see SilentPadSender::~SilentPadSender).
  for (Pool& pool : pools_) {
    for (PrecomputedSendSlot& slot : pool.slots) wipe_send_slot(slot);
  }
}

void BatchedOtSender::enable_silent(std::size_t low_water) {
  detail::require(!aborted_, "ot: aborted engine cannot be resumed");
  detail::require(pools_.empty(), "ot: enable_silent before any reserve");
  low_water_ = low_water;
  silent_ = std::make_unique<SilentPadSender>(base_.group(), rng_, low_water);
}

void BatchedOtSender::attach_reservoir(PadReservoir& reservoir) {
  if (silent_) silent_->attach_reservoir(&reservoir);
}

void BatchedOtSender::detach_reservoir() noexcept {
  if (silent_) silent_->detach_reservoir();
}

void BatchedOtSender::abort() noexcept {
  const bool silent = silent_ != nullptr;
  if (silent) silent_->abort();
  {
    std::lock_guard lk(pools_mu_);
    for (Pool& pool : pools_) {
      for (PrecomputedSendSlot& slot : pool.slots) wipe_send_slot(slot);
      pool.next = pool.slots.size();  // nothing left to consume
    }
  }
  aborted_ = true;
  ot_abort_audit().aborts.fetch_add(1);
  if (pool_wiped()) ot_abort_audit().wiped.fetch_add(1);
  if (silent) {
    if (silent_->frontier_clean()) {
      ot_abort_audit().frontier_wipes.fetch_add(1);
    }
    if (silent_->pads_clean()) {
      ot_abort_audit().reservoir_wipes.fetch_add(1);
    }
  }
}

bool BatchedOtSender::pool_wiped() const {
  if (silent_ && !silent_->pads_clean()) return false;
  std::lock_guard lk(pools_mu_);
  for (const Pool& pool : pools_) {
    for (const PrecomputedSendSlot& slot : pool.slots) {
      for (const Bytes& pad : slot.pads) {
        for (std::uint8_t b : pad) {
          // abort-audit hook: only ever runs on pools that abort() zeroed,
          // so this scans dead key material. taint: allow(secret-branch)
          if (b != 0) return false;
        }
      }
    }
  }
  return true;
}

std::size_t BatchedOtSender::available_slots() const {
  if (silent_) return silent_->ledger_available_total();
  std::lock_guard lk(pools_mu_);
  std::size_t total = 0;
  for (const Pool& pool : pools_) total += pool.slots.size() - pool.next;
  return total;
}

std::size_t BatchedOtSender::available_slots(std::size_t arity) const {
  if (silent_) return silent_->ledger_available(arity);
  std::lock_guard lk(pools_mu_);
  for (const Pool& pool : pools_) {
    if (pool.arity == arity) return pool.slots.size() - pool.next;
  }
  return 0;
}

std::size_t BatchedOtSender::remaining() const { return available_slots(); }

std::size_t BatchedOtSender::remaining(std::size_t arity) const {
  return available_slots(arity);
}

BatchedOtSender::Pool& BatchedOtSender::pool_for(std::size_t arity) {
  for (Pool& pool : pools_) {
    if (pool.arity == arity) return pool;
  }
  std::lock_guard lk(pools_mu_);
  pools_.push_back(Pool{arity, {}, 0});
  return pools_.back();
}

void BatchedOtSender::reserve(net::Endpoint& channel, std::size_t slots) {
  reserve(channel, 2, slots);
}

void BatchedOtSender::reserve(net::Endpoint& channel, std::size_t arity,
                              std::size_t count) {
  if (aborted_) throw ProtocolError("ot: aborted engine cannot be resumed");
  if (silent_) {
    // Non-blocking fast path: stage_to is ledger bookkeeping plus at most
    // one correction-block recv; all expansion stays off this thread.
    silent_->ensure_ready(channel);
    silent_->stage_to(channel, arity, count);
    return;
  }
  Pool& pool = pool_for(arity);
  const std::size_t have = pool.slots.size() - pool.next;
  if (have >= count) return;
  const std::size_t top_up = count - have;
  auto fresh = precompute_ot_sender(channel, base_, top_up, 32, rng_, arity);
  std::lock_guard lk(pools_mu_);
  // Compact the consumed prefix (its pads are spent key material).
  for (std::size_t i = 0; i < pool.next; ++i) wipe_send_slot(pool.slots[i]);
  pool.slots.erase(pool.slots.begin(),
                   pool.slots.begin() + static_cast<std::ptrdiff_t>(pool.next));
  pool.next = 0;
  pool.slots.insert(pool.slots.end(), std::make_move_iterator(fresh.begin()),
                    std::make_move_iterator(fresh.end()));
}

void BatchedOtSender::send(net::Endpoint& channel,
                           std::span<const Bytes> messages, std::size_t k) {
  if (aborted_) throw ProtocolError("ot: aborted engine cannot be resumed");
  check_equal_lengths(messages);
  detail::require(k >= 1 && k <= messages.size(), "ot: bad k");
  const std::size_t n = messages.size();
  detail::require(n <= kMaxDirectArity,
                  "ot: transfer arity above kMaxDirectArity");
  if (n == 1) {
    for (std::size_t i = 0; i < k; ++i) channel.send(messages.front());
    return;
  }
  if (silent_) {
    silent_->ensure_ready(channel);
    // Auto-staging keyed on the shared ledger and PROTOCOL constants (never
    // refill_batch or pool levels), so both sides stage identically and
    // the transcript is independent of background-refill timing.
    if (silent_->ledger_available(n) < k + kSilentLeadSlots) {
      silent_->stage_to(channel, n, k + kSilentLeadSlots);
    }
    for (std::size_t i = 0; i < k; ++i) {
      PrecomputedSendSlot slot = silent_->take(n);
      precomputed_send_1ofn(channel, slot, messages);
      wipe_send_slot(slot);
    }
    return;
  }
  // Symmetric auto-refill: both parties derive the same need from the
  // transfer shape and the same pool level from identical consumption.
  // Direct 1-of-n slots: one slot (one offline exponentiation) per transfer.
  if (remaining(n) < k) reserve(channel, n, std::max(k, refill_batch_));
  Pool& pool = pool_for(n);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t at = take_index(pools_mu_, pool);
    precomputed_send_1ofn(channel, pool.slots[at], messages);
  }
}

BatchedOtReceiver::BatchedOtReceiver(const DhGroup& group, Rng& rng,
                                     std::size_t refill_batch)
    : base_(group, rng),
      rng_(rng),
      refill_batch_(std::max<std::size_t>(refill_batch, 1)) {}

BatchedOtReceiver::~BatchedOtReceiver() {
  for (Pool& pool : pools_) {
    for (PrecomputedRecvSlot& slot : pool.slots) wipe_recv_slot(slot);
  }
}

void BatchedOtReceiver::enable_silent(std::size_t low_water) {
  detail::require(!aborted_, "ot: aborted engine cannot be resumed");
  detail::require(pools_.empty(), "ot: enable_silent before any reserve");
  low_water_ = low_water;
  silent_ = std::make_unique<SilentPadReceiver>(base_.group(), rng_, low_water);
}

void BatchedOtReceiver::attach_reservoir(PadReservoir& reservoir) {
  if (silent_) silent_->attach_reservoir(&reservoir);
}

void BatchedOtReceiver::detach_reservoir() noexcept {
  if (silent_) silent_->detach_reservoir();
}

void BatchedOtReceiver::abort() noexcept {
  const bool silent = silent_ != nullptr;
  if (silent) silent_->abort();
  {
    std::lock_guard lk(pools_mu_);
    for (Pool& pool : pools_) {
      for (PrecomputedRecvSlot& slot : pool.slots) wipe_recv_slot(slot);
      pool.next = pool.slots.size();
    }
  }
  aborted_ = true;
  ot_abort_audit().aborts.fetch_add(1);
  if (pool_wiped()) ot_abort_audit().wiped.fetch_add(1);
  if (silent) {
    if (silent_->frontier_clean()) {
      ot_abort_audit().frontier_wipes.fetch_add(1);
    }
    if (silent_->pads_clean()) {
      ot_abort_audit().reservoir_wipes.fetch_add(1);
    }
  }
}

bool BatchedOtReceiver::pool_wiped() const {
  if (silent_ && !silent_->pads_clean()) return false;
  std::lock_guard lk(pools_mu_);
  for (const Pool& pool : pools_) {
    for (const PrecomputedRecvSlot& slot : pool.slots) {
      for (std::uint8_t b : slot.pad) {
        // abort-audit hook: only ever runs on pools that abort() zeroed,
        // so this scans dead key material. taint: allow(secret-branch)
        if (b != 0) return false;
      }
    }
  }
  return true;
}

std::size_t BatchedOtReceiver::available_slots() const {
  if (silent_) return silent_->ledger_available_total();
  std::lock_guard lk(pools_mu_);
  std::size_t total = 0;
  for (const Pool& pool : pools_) total += pool.slots.size() - pool.next;
  return total;
}

std::size_t BatchedOtReceiver::available_slots(std::size_t arity) const {
  if (silent_) return silent_->ledger_available(arity);
  std::lock_guard lk(pools_mu_);
  for (const Pool& pool : pools_) {
    if (pool.arity == arity) return pool.slots.size() - pool.next;
  }
  return 0;
}

std::size_t BatchedOtReceiver::remaining() const { return available_slots(); }

std::size_t BatchedOtReceiver::remaining(std::size_t arity) const {
  return available_slots(arity);
}

BatchedOtReceiver::Pool& BatchedOtReceiver::pool_for(std::size_t arity) {
  for (Pool& pool : pools_) {
    if (pool.arity == arity) return pool;
  }
  std::lock_guard lk(pools_mu_);
  pools_.push_back(Pool{arity, {}, 0});
  return pools_.back();
}

void BatchedOtReceiver::reserve(net::Endpoint& channel, std::size_t slots) {
  reserve(channel, 2, slots);
}

void BatchedOtReceiver::reserve(net::Endpoint& channel, std::size_t arity,
                                std::size_t count) {
  if (aborted_) throw ProtocolError("ot: aborted engine cannot be resumed");
  if (silent_) {
    silent_->ensure_ready(channel);
    silent_->stage_to(channel, arity, count);
    return;
  }
  Pool& pool = pool_for(arity);
  const std::size_t have = pool.slots.size() - pool.next;
  if (have >= count) return;
  const std::size_t top_up = count - have;
  auto fresh = precompute_ot_receiver(channel, base_, top_up, 32, rng_, arity);
  std::lock_guard lk(pools_mu_);
  for (std::size_t i = 0; i < pool.next; ++i) wipe_recv_slot(pool.slots[i]);
  pool.slots.erase(pool.slots.begin(),
                   pool.slots.begin() + static_cast<std::ptrdiff_t>(pool.next));
  pool.next = 0;
  pool.slots.insert(pool.slots.end(), std::make_move_iterator(fresh.begin()),
                    std::make_move_iterator(fresh.end()));
}

std::vector<Bytes> BatchedOtReceiver::receive(
    net::Endpoint& channel, std::span<const std::size_t> indices,
    std::size_t n, std::size_t message_len) {
  if (aborted_) throw ProtocolError("ot: aborted engine cannot be resumed");
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
  if (silent_) {
    silent_->ensure_ready(channel);
    if (silent_->ledger_available(n) < indices.size() + kSilentLeadSlots) {
      silent_->stage_to(channel, n, indices.size() + kSilentLeadSlots);
    }
    for (std::size_t index : indices) {
      PrecomputedRecvSlot slot = silent_->take(n);
      out.push_back(precomputed_receive_1ofn(channel, slot, index, message_len));
      wipe_recv_slot(slot);
    }
    return out;
  }
  if (remaining(n) < indices.size()) {
    reserve(channel, n, std::max(indices.size(), refill_batch_));
  }
  Pool& pool = pool_for(n);
  for (std::size_t index : indices) {
    const std::size_t at = take_index(pools_mu_, pool);
    out.push_back(
        precomputed_receive_1ofn(channel, pool.slots[at], index, message_len));
  }
  return out;
}

}  // namespace ppds::crypto
