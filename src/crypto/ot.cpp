#include "ppds/crypto/ot.hpp"

#include <array>

#include "ppds/common/ct.hpp"
#include "ppds/common/error.hpp"
#include "ppds/crypto/prg.hpp"
#include "ppds/crypto/silent_ot.hpp"

namespace ppds::crypto {

namespace {

void check_slot_arity(std::size_t arity) {
  detail::require(arity >= 2 && arity <= kMaxDirectArity,
                  "ot: slot arity must be in [2, kMaxDirectArity]");
}

void check_equal_lengths(std::span<const Bytes> messages) {
  detail::require(!messages.empty(), "ot: no messages");
  const std::size_t len = messages.front().size();
  for (const Bytes& m : messages) {
    detail::require(m.size() == len, "ot: unequal message lengths");
  }
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

/// --- Batched random-pad OTs --------------------------------------------------
///
/// One round trip fills N slots (Naor-Pinkas amortization): the sender
/// reuses a single (C = g^a, g^r) pair for the whole batch, the receiver
/// answers with all N blinded keys in one bundle, and the random pads are
/// DERIVED as H(shared_secret, 2i + b) rather than chosen and encrypted —
/// there is no third message. Per slot the sender pays one full
/// exponentiation (u = PK_0^r; pad 1 falls out as C^r * u^{-1} with the
/// u^{-1} batch-inverted across the whole bundle) and the receiver two
/// table-served ones (g^x and (g^r)^x via a per-batch window table for
/// g^r). Semi-honest security follows from the original construction: the
/// receiver cannot compute both H inputs without solving CDH for (C, g^r),
/// and the per-slot tag keeps pads independent.

std::vector<PrecomputedSendSlot> precompute_ot_sender(
    net::Endpoint& channel, NaorPinkasSender& sender, std::size_t count,
    std::size_t pad_len, Rng& rng) {
  detail::require(pad_len >= 1 && pad_len <= 32,
                  "precompute ot: pad_len must be in [1, 32]");
  std::vector<PrecomputedSendSlot> slots(count);
  for (PrecomputedSendSlot& slot : slots) slot.pads.resize(2);
  if (count == 0) return slots;
  const DhGroup& group = sender.group();

  const mpz_class a = group.random_exponent(rng);
  const mpz_class r = group.random_exponent(rng);

  ByteWriter announce;
  announce.raw(group.serialize(group.pow_g(a)));
  announce.raw(group.serialize(group.pow_g(r)));
  channel.send(PPDS_DECLASSIFY(
      announce.take(),
      "announce = (C, g^r): Naor-Pinkas public keys; the exponents never "
      "leave the sender and recovering them is DLOG"));

  // C^r = g^{a * r mod q}: the sender knows both exponents, so even this
  // stays on the fixed-base path.
  const mpz_class c_r = group.pow_g(a * r % group.q());

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
    PPDS_SECRET Digest k0 = group.hash_to_key(u[i], 2 * i);
    PPDS_SECRET Digest k1 =
        group.hash_to_key(group.mul(c_r, u_inv[i]), 2 * i + 1);
    slots[i].pads[0].assign(k0.begin(),
                            k0.begin() + static_cast<std::ptrdiff_t>(pad_len));
    slots[i].pads[1].assign(k1.begin(),
                            k1.begin() + static_cast<std::ptrdiff_t>(pad_len));
    secure_wipe(std::span(k0));
    secure_wipe(std::span(k1));
  }
  return slots;
}

std::vector<PrecomputedRecvSlot> precompute_ot_receiver(
    net::Endpoint& channel, NaorPinkasReceiver& receiver, std::size_t count,
    std::size_t pad_len, Rng& rng) {
  detail::require(pad_len >= 1 && pad_len <= 32,
                  "precompute ot: pad_len must be in [1, 32]");
  std::vector<PrecomputedRecvSlot> slots(count);
  if (count == 0) return slots;
  const DhGroup& group = receiver.group();
  const std::size_t eb = group.element_bytes();

  const Bytes announce = channel.recv();
  detail::require(announce.size() == 2 * eb, "precompute ot: bad announce");
  const mpz_class c = group.deserialize(std::span(announce).first(eb));
  const mpz_class gr = group.deserialize(std::span(announce).subspan(eb, eb));

  // Window table for the batch-constant base g^r; the build costs a few
  // full exponentiations' worth of multiplies, so only bother for batches
  // that amortize it.
  std::unique_ptr<FixedBaseTable> gr_table;
  if (count >= 16) gr_table = group.make_table(gr);

  ByteWriter w;
  for (std::size_t i = 0; i < count; ++i) {
    PrecomputedRecvSlot& slot = slots[i];
    // One rng() word per slot; the choice is its low bit.
    slot.choice = static_cast<std::uint32_t>(rng() & 1);
    const mpz_class x = group.random_exponent(rng);
    const mpz_class gx = group.pow_g(x);
    const Bytes gx_bytes = group.serialize(gx);
    const Bytes blinded_bytes =
        group.serialize(group.mul(c, group.invert(gx)));

    // Byte-level constant-time select: announce g^x when choice == 0, the
    // blinded C * g^{-x} otherwise.
    const std::uint8_t keep_gx = static_cast<std::uint8_t>(
        0u - static_cast<unsigned>(slot.choice == 0));
    Bytes pk(eb, 0);
    for (std::size_t b = 0; b < eb; ++b) {
      pk[b] = static_cast<std::uint8_t>((gx_bytes[b] & keep_gx) |
                                        (blinded_bytes[b] & ~keep_gx));
    }
    w.raw(PPDS_DECLASSIFY(
        pk,
        "blinded key: the announced PK_0 is g^x or C * g^-x, either way "
        "uniform; recovering the choice bit needs CDH"));

    const mpz_class shared = group.pow_with(gr_table.get(), gr, x);
    PPDS_SECRET Digest key = group.hash_to_key(shared, 2 * i + slot.choice);
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

/// Refuses any use of an aborted engine (see BatchedOtSender::abort()).
template <typename Silent>
void require_live(const Silent& silent) {
  if (silent.aborted()) {
    throw ProtocolError("ot: aborted engine cannot be resumed");
  }
}

/// Feeds the process-wide audit after an engine's abort() has wiped it.
template <typename Silent>
void audit_abort(const Silent& silent) {
  OtAbortAudit& audit = ot_abort_audit();
  audit.aborts.fetch_add(1);
  if (silent.pads_clean()) audit.wiped.fetch_add(1);
  if (silent.frontier_clean()) audit.frontier_wipes.fetch_add(1);
}

}  // namespace

BatchedOtSender::BatchedOtSender(const DhGroup& group, Rng& rng)
    : silent_(std::make_unique<SilentPadSender>(group, rng)) {}

// unique_ptr destruction wipes the silent engine's state (see
// SilentPadSender::~SilentPadSender).
BatchedOtSender::~BatchedOtSender() = default;

void BatchedOtSender::abort() noexcept {
  silent_->abort();
  audit_abort(*silent_);
}

bool BatchedOtSender::aborted() const { return silent_->aborted(); }

bool BatchedOtSender::pool_wiped() const { return silent_->pads_clean(); }

std::size_t BatchedOtSender::available_slots() const {
  return silent_->ledger_available_total();
}

std::size_t BatchedOtSender::available_slots(std::size_t arity) const {
  return silent_->ledger_available(arity);
}

void BatchedOtSender::reserve(net::Endpoint& channel, std::size_t arity,
                              std::size_t count) {
  require_live(*silent_);
  check_slot_arity(arity);
  // stage_to is ledger bookkeeping plus the correction-block recvs; the
  // pads expand later, in send()'s take().
  silent_->ensure_ready(channel);
  silent_->stage_to(channel, arity, count);
}

void BatchedOtSender::send(net::Endpoint& channel,
                           std::span<const Bytes> messages, std::size_t k) {
  require_live(*silent_);
  check_equal_lengths(messages);
  detail::require(k >= 1 && k <= messages.size(), "ot: bad k");
  const std::size_t n = messages.size();
  detail::require(n <= kMaxDirectArity,
                  "ot: transfer arity above kMaxDirectArity");
  if (n == 1) {
    for (std::size_t i = 0; i < k; ++i) channel.send(messages.front());
    return;
  }
  silent_->ensure_ready(channel);
  // Auto-staging keyed on the shared ledger and PROTOCOL constants, so both
  // sides stage identical correction blocks.
  if (silent_->ledger_available(n) < k + kSilentLeadSlots) {
    silent_->stage_to(channel, n, k + kSilentLeadSlots);
  }
  for (std::size_t i = 0; i < k; ++i) {
    PrecomputedSendSlot slot = silent_->take(n);
    precomputed_send_1ofn(channel, slot, messages);
    wipe_send_slot(slot);
  }
}

BatchedOtReceiver::BatchedOtReceiver(const DhGroup& group, Rng& rng)
    : silent_(std::make_unique<SilentPadReceiver>(group, rng)) {}

BatchedOtReceiver::~BatchedOtReceiver() = default;

void BatchedOtReceiver::abort() noexcept {
  silent_->abort();
  audit_abort(*silent_);
}

bool BatchedOtReceiver::aborted() const { return silent_->aborted(); }

bool BatchedOtReceiver::pool_wiped() const { return silent_->pads_clean(); }

std::size_t BatchedOtReceiver::available_slots() const {
  return silent_->ledger_available_total();
}

std::size_t BatchedOtReceiver::available_slots(std::size_t arity) const {
  return silent_->ledger_available(arity);
}

void BatchedOtReceiver::reserve(net::Endpoint& channel, std::size_t arity,
                                std::size_t count) {
  require_live(*silent_);
  check_slot_arity(arity);
  silent_->ensure_ready(channel);
  silent_->stage_to(channel, arity, count);
}

std::vector<Bytes> BatchedOtReceiver::receive(
    net::Endpoint& channel, std::span<const std::size_t> indices,
    std::size_t n, std::size_t message_len) {
  require_live(*silent_);
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

}  // namespace ppds::crypto
