#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "ppds/common/bytes.hpp"
#include "ppds/common/hex.hpp"
#include "ppds/crypto/sha256.hpp"
#include "ppds/net/channel.hpp"

namespace ppds::test {

/// Test-local transport decorator: SHA-256 over every payload it sends and
/// receives, each length-prefixed, so a golden value pins the exact bytes
/// of both transcript directions.
class HashingEndpoint final : public net::Endpoint {
 public:
  explicit HashingEndpoint(net::Endpoint&& inner)
      : net::Endpoint(std::move(inner)) {}

  std::string sent_hex() { return to_hex(sent_.finish()); }
  std::string received_hex() { return to_hex(received_.finish()); }

 protected:
  void deliver(net::detail::Frame&& frame) override {
    absorb(sent_, frame.payload);
    Endpoint::deliver(std::move(frame));
  }

  net::detail::Frame fetch(const net::Deadline& deadline) override {
    net::detail::Frame frame = Endpoint::fetch(deadline);
    absorb(received_, frame.payload);
    return frame;
  }

 private:
  static void absorb(crypto::Sha256& hash, const Bytes& payload) {
    std::array<std::uint8_t, 8> len{};
    for (std::size_t b = 0; b < len.size(); ++b) {
      len[b] = static_cast<std::uint8_t>(payload.size() >> (8 * b));
    }
    hash.update(len);
    hash.update(payload);
  }

  crypto::Sha256 sent_;
  crypto::Sha256 received_;
};

}  // namespace ppds::test
