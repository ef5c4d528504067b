#include "ppds/crypto/prg.hpp"

#include "ppds/common/ct.hpp"

namespace ppds::crypto {

Prg::~Prg() {
  secure_wipe(std::span(seed_));
  secure_wipe(std::span(block_));
}

void Prg::refill() {
  Sha256 h;
  h.update(seed_);
  std::uint8_t ctr[8];
  for (int i = 0; i < 8; ++i) ctr[i] = static_cast<std::uint8_t>(counter_ >> (8 * i));
  h.update(std::span<const std::uint8_t>(ctr, 8));
  block_ = h.finish();
  ++counter_;
  block_pos_ = 0;
}

Bytes Prg::next(std::size_t n) {
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    if (block_pos_ == block_.size()) refill();
    const std::size_t take =
        std::min(n - out.size(), block_.size() - block_pos_);
    out.insert(out.end(), block_.begin() + static_cast<std::ptrdiff_t>(block_pos_),
               block_.begin() + static_cast<std::ptrdiff_t>(block_pos_ + take));
    block_pos_ += take;
  }
  return out;
}

std::uint64_t Prg::next_u64() {
  const Bytes b = next(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

}  // namespace ppds::crypto
