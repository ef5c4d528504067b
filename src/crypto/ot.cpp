#include "ppds/crypto/ot.hpp"

#include <memory>

#include "ppds/common/ct.hpp"
#include "ppds/common/error.hpp"

namespace ppds::crypto {

void check_equal_lengths(std::span<const Bytes> messages) {
  detail::require(!messages.empty(), "ot: no messages");
  const std::size_t len = messages.front().size();
  for (const Bytes& m : messages) {
    detail::require(m.size() == len, "ot: unequal message lengths");
  }
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
    net::Endpoint& channel, const DhGroup& group, std::size_t count,
    std::size_t pad_len, Rng& rng) {
  detail::require(pad_len >= 1 && pad_len <= 32,
                  "precompute ot: pad_len must be in [1, 32]");
  std::vector<PrecomputedSendSlot> slots(count);
  for (PrecomputedSendSlot& slot : slots) slot.pads.resize(2);
  if (count == 0) return slots;

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
    net::Endpoint& channel, const DhGroup& group, std::size_t count,
    std::size_t pad_len, Rng& rng) {
  detail::require(pad_len >= 1 && pad_len <= 32,
                  "precompute ot: pad_len must be in [1, 32]");
  std::vector<PrecomputedRecvSlot> slots(count);
  if (count == 0) return slots;
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
  try {
    channel.send(w.take());
  } catch (...) {
    // The pads exist before the blinded keys leave; a failed send must not
    // strand them in freed heap pages.
    for (PrecomputedRecvSlot& slot : slots) secure_wipe(std::span(slot.pad));
    throw;
  }
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

OtAbortAudit& ot_abort_audit() {
  static OtAbortAudit audit;
  return audit;
}

}  // namespace ppds::crypto
