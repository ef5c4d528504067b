#include "ppds/crypto/group.hpp"

#include <algorithm>
#include <array>

#include "ppds/common/ct.hpp"
#include "ppds/common/error.hpp"
#include "ppds/common/secret_taint.hpp"

namespace ppds::crypto {

namespace {

// RFC 2409, Second Oakley Group (1024-bit MODP).
const char* kModp1024Hex =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381"
    "FFFFFFFFFFFFFFFF";

// RFC 3526, Group 5 (1536-bit MODP).
const char* kModp1536Hex =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF";

// RFC 3526, Group 14 (2048-bit MODP).
const char* kModp2048Hex =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF";

const char* hex_for(GroupId id) {
  switch (id) {
    case GroupId::kModp1024:
      return kModp1024Hex;
    case GroupId::kModp1536:
      return kModp1536Hex;
    case GroupId::kModp2048:
      return kModp2048Hex;
  }
  throw InvalidArgument("unknown GroupId");
}

std::atomic<std::uint64_t>& full_exp_counter() {
  static std::atomic<std::uint64_t> counter{0};
  return counter;
}

std::atomic<std::uint64_t>& fixed_base_exp_counter() {
  static std::atomic<std::uint64_t> counter{0};
  return counter;
}

std::atomic<std::uint64_t>& multi_exp_batch_counter() {
  static std::atomic<std::uint64_t> counter{0};
  return counter;
}

std::atomic<std::uint64_t>& multi_exp_base_counter() {
  static std::atomic<std::uint64_t> counter{0};
  return counter;
}

}  // namespace

ExpCounters exp_counters() {
  return {full_exp_counter().load(std::memory_order_relaxed),
          fixed_base_exp_counter().load(std::memory_order_relaxed),
          multi_exp_batch_counter().load(std::memory_order_relaxed),
          multi_exp_base_counter().load(std::memory_order_relaxed)};
}

void reset_exp_counters() {
  full_exp_counter().store(0, std::memory_order_relaxed);
  fixed_base_exp_counter().store(0, std::memory_order_relaxed);
  multi_exp_batch_counter().store(0, std::memory_order_relaxed);
  multi_exp_base_counter().store(0, std::memory_order_relaxed);
}

FixedBaseTable::FixedBaseTable(const mpz_class& base, const mpz_class& modulus,
                               std::size_t exponent_bits)
    : modulus_(modulus), exponent_bits_(exponent_bits) {
  detail::require(exponent_bits_ >= 1, "FixedBaseTable: empty exponent range");
  constexpr std::size_t kEntriesPerBlock = std::size_t{1} << kWindowBits;
  blocks_ = (exponent_bits_ + kWindowBits - 1) / kWindowBits;
  entries_.resize(blocks_ * kEntriesPerBlock);
  // Block i's unit is base^(2^(w*i)): w squarings of the previous unit.
  mpz_class unit = base % modulus_;
  for (std::size_t i = 0; i < blocks_; ++i) {
    mpz_class* row = entries_.data() + i * kEntriesPerBlock;
    row[0] = 1;
    for (std::size_t j = 1; j < kEntriesPerBlock; ++j) {
      row[j] = row[j - 1] * unit;
      row[j] %= modulus_;
    }
    if (i + 1 < blocks_) {
      // unit^(2^w - 1) * unit == unit^(2^w), the next block's unit.
      unit = row[kEntriesPerBlock - 1] * unit;
      unit %= modulus_;
    }
  }
}

mpz_class FixedBaseTable::pow(const mpz_class& e) const {
  constexpr std::size_t kEntriesPerBlock = std::size_t{1} << kWindowBits;
  mpz_class out = 1;
  const std::size_t bits = mpz_sizeinbase(e.get_mpz_t(), 2);
  const std::size_t used_blocks =
      std::min(blocks_, (bits + kWindowBits - 1) / kWindowBits);
  for (std::size_t i = 0; i < used_blocks; ++i) {
    std::size_t window = 0;
    for (unsigned b = 0; b < kWindowBits; ++b) {
      if (mpz_tstbit(e.get_mpz_t(), i * kWindowBits + b) != 0) {
        window |= std::size_t{1} << b;
      }
    }
    if (window == 0) continue;
    out *= entries_[i * kEntriesPerBlock + window];
    out %= modulus_;
  }
  fixed_base_exp_counter().fetch_add(1, std::memory_order_relaxed);
  return out;
}

DhGroup::DhGroup(GroupId id) {
  p_ = mpz_class(hex_for(id), 16);
  q_ = (p_ - 1) / 2;
  g_ = 4;  // 2^2 is a quadratic residue, hence generates the order-q subgroup
  element_bytes_ = (mpz_sizeinbase(p_.get_mpz_t(), 2) + 7) / 8;
}

const FixedBaseTable* DhGroup::generator_table() const {
  std::call_once(g_table_once_, [this] {
    g_table_ = std::make_unique<FixedBaseTable>(
        g_, p_, mpz_sizeinbase(p_.get_mpz_t(), 2));
  });
  return g_table_.get();
}

mpz_class DhGroup::pow_g(const mpz_class& e) const {
  return pow_with(generator_table(), g_, e);
}

std::unique_ptr<FixedBaseTable> DhGroup::make_table(
    const mpz_class& base) const {
  return std::make_unique<FixedBaseTable>(
      base, p_, mpz_sizeinbase(p_.get_mpz_t(), 2));
}

mpz_class DhGroup::pow_with(const FixedBaseTable* table, const mpz_class& base,
                            const mpz_class& e) const {
  if (table != nullptr && e >= 0 &&
      mpz_sizeinbase(e.get_mpz_t(), 2) <= table->exponent_bits()) {
    return table->pow(e);
  }
  return pow(base, e);
}

mpz_class DhGroup::pow(const mpz_class& base, const mpz_class& e) const {
  full_exp_counter().fetch_add(1, std::memory_order_relaxed);
  mpz_class out;
  mpz_powm(out.get_mpz_t(), base.get_mpz_t(), e.get_mpz_t(), p_.get_mpz_t());
  return out;
}

mpz_class DhGroup::mul(const mpz_class& a, const mpz_class& b) const {
  mpz_class out = a * b;
  out %= p_;
  return out;
}

mpz_class DhGroup::invert(const mpz_class& a) const {
  mpz_class out;
  if (mpz_invert(out.get_mpz_t(), a.get_mpz_t(), p_.get_mpz_t()) == 0) {
    throw CryptoError("DhGroup: non-invertible element");
  }
  return out;
}

namespace {

/// w-bit window of \p e starting at bit \p lo (little-endian bit order).
std::size_t exp_window(const mpz_class& e, std::size_t lo, unsigned w) {
  std::size_t window = 0;
  for (unsigned b = 0; b < w; ++b) {
    if (mpz_tstbit(e.get_mpz_t(), lo + b) != 0) window |= std::size_t{1} << b;
  }
  return window;
}

}  // namespace

mpz_class DhGroup::multi_exp(std::span<const mpz_class> bases,
                             std::span<const mpz_class> exps) const {
  detail::require(bases.size() == exps.size(),
                  "DhGroup::multi_exp: bases/exps size mismatch");
  multi_exp_batch_counter().fetch_add(1, std::memory_order_relaxed);
  multi_exp_base_counter().fetch_add(bases.size(), std::memory_order_relaxed);
  if (bases.empty()) return 1;

  // Generator bases don't join the squaring chain at all: the window table
  // already holds every g^(j * 2^(w*i)), so their contribution is a pure
  // table product, multiplied into the joint result at the end.
  mpz_class g_part = 1;
  std::vector<std::size_t> chain;  // indices of non-generator bases
  chain.reserve(bases.size());
  std::size_t max_bits = 0;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    detail::require(exps[i] >= 0, "DhGroup::multi_exp: negative exponent");
    if (bases[i] == g_) {
      g_part = mul(g_part, pow_g(exps[i]));
      continue;
    }
    chain.push_back(i);
    max_bits = std::max(max_bits, mpz_sizeinbase(exps[i].get_mpz_t(), 2));
  }
  if (chain.empty()) return g_part;

  constexpr unsigned kWindow = 4;
  constexpr std::size_t kSlots = std::size_t{1} << kWindow;
  const std::size_t top =
      (max_bits + kWindow - 1) / kWindow * kWindow;  // first window's high bit
  mpz_class acc = 1;

  if (chain.size() <= kPippengerThreshold) {
    // Straus interleaving: per-base digit tables, one shared squaring chain.
    std::vector<std::array<mpz_class, kSlots>> tables(chain.size());
    for (std::size_t t = 0; t < chain.size(); ++t) {
      tables[t][0] = 1;
      for (std::size_t j = 1; j < kSlots; ++j) {
        tables[t][j] = mul(tables[t][j - 1], bases[chain[t]]);
      }
    }
    for (std::size_t lo = top; lo >= kWindow; lo -= kWindow) {
      if (acc != 1) {
        for (unsigned s = 0; s < kWindow; ++s) acc = mul(acc, acc);
      }
      for (std::size_t t = 0; t < chain.size(); ++t) {
        const std::size_t d = exp_window(exps[chain[t]], lo - kWindow, kWindow);
        if (d != 0) acc = mul(acc, tables[t][d]);
      }
    }
  } else {
    // Pippenger buckets: per window, group bases by digit and fold each
    // bucket once — the window precompute is shared across ALL bases.
    std::vector<mpz_class> buckets(kSlots);
    for (std::size_t lo = top; lo >= kWindow; lo -= kWindow) {
      if (acc != 1) {
        for (unsigned s = 0; s < kWindow; ++s) acc = mul(acc, acc);
      }
      for (auto& b : buckets) b = 1;
      for (const std::size_t i : chain) {
        const std::size_t d = exp_window(exps[i], lo - kWindow, kWindow);
        if (d != 0) buckets[d] = mul(buckets[d], bases[i]);
      }
      // sum_j bucket[j]^j via the running-product trick.
      mpz_class run = 1;
      mpz_class sum = 1;
      for (std::size_t j = kSlots - 1; j >= 1; --j) {
        run = mul(run, buckets[j]);
        sum = mul(sum, run);
      }
      acc = mul(acc, sum);
    }
  }
  return mul(acc, g_part);
}

void DhGroup::batch_invert(std::span<mpz_class> xs) const {
  if (xs.empty()) return;
  // Montgomery's trick: one inversion of the running product, then peel the
  // prefixes back off with two multiplies per element.
  std::vector<mpz_class> prefix(xs.size());
  prefix[0] = xs[0];
  for (std::size_t i = 1; i < xs.size(); ++i) {
    prefix[i] = mul(prefix[i - 1], xs[i]);
  }
  mpz_class t = invert(prefix.back());
  for (std::size_t i = xs.size(); i-- > 1;) {
    const mpz_class orig = xs[i];
    xs[i] = mul(t, prefix[i - 1]);
    t = mul(t, orig);
  }
  xs[0] = t;
}

mpz_class DhGroup::random_exponent(Rng& rng) const {
  // Rejection-sample a uniform value below q from 64-bit words.
  const std::size_t bits = mpz_sizeinbase(q_.get_mpz_t(), 2);
  const std::size_t words = (bits + 63) / 64;
  for (;;) {
    // DH private exponent in the making: the taint root for every secret
    // exponent in the Naor-Pinkas OT (sender x, receiver k, base-OT pads).
    PPDS_SECRET mpz_class candidate = 0;
    for (std::size_t i = 0; i < words; ++i) {
      const std::uint64_t word = rng();
      candidate <<= 32;
      candidate += static_cast<unsigned long>(word >> 32);
      candidate <<= 32;
      candidate += static_cast<unsigned long>(word & 0xffffffffULL);
    }
    candidate %= (mpz_class(1) << bits);
    if (candidate >= 1 && candidate < q_) return candidate;
  }
}

mpz_class DhGroup::random_element(Rng& rng) const {
  return pow_g(random_exponent(rng));
}

Bytes DhGroup::serialize(const mpz_class& x) const {
  Bytes out(element_bytes_, 0);
  if (x == 0) return out;
  const std::size_t needed = (mpz_sizeinbase(x.get_mpz_t(), 2) + 7) / 8;
  detail::require(needed <= element_bytes_, "DhGroup: element too large");
  std::size_t count = 0;
  // Big-endian, right-aligned into the fixed-width buffer.
  mpz_export(out.data() + (element_bytes_ - needed), &count, 1, 1, 1, 0,
             x.get_mpz_t());
  return out;
}

mpz_class DhGroup::deserialize(std::span<const std::uint8_t> data) const {
  if (data.size() != element_bytes_) {
    throw CryptoError("DhGroup: bad element length");
  }
  mpz_class x;
  mpz_import(x.get_mpz_t(), data.size(), 1, 1, 1, 0, data.data());
  if (x < 1 || x >= p_) throw CryptoError("DhGroup: element out of range");
  return x;
}

const DhGroup& shared_group(GroupId id) {
  switch (id) {
    case GroupId::kModp1024: {
      static const DhGroup group(GroupId::kModp1024);
      return group;
    }
    case GroupId::kModp1536: {
      static const DhGroup group(GroupId::kModp1536);
      return group;
    }
    case GroupId::kModp2048: {
      static const DhGroup group(GroupId::kModp2048);
      return group;
    }
  }
  throw InvalidArgument("unknown GroupId");
}

Digest DhGroup::hash_to_key(const mpz_class& x, std::uint64_t tag) const {
  Sha256 h;
  Bytes elem = serialize(x);  // serialized DH shared secret
  h.update(elem);
  secure_wipe(std::span(elem));
  std::uint8_t tag_bytes[8];
  for (int i = 0; i < 8; ++i) tag_bytes[i] = static_cast<std::uint8_t>(tag >> (8 * i));
  h.update(std::span<const std::uint8_t>(tag_bytes, 8));
  return h.finish();
}

}  // namespace ppds::crypto
