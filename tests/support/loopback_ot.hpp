#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ppds/common/bytes.hpp"
#include "ppds/common/error.hpp"
#include "ppds/core/config.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/net/channel.hpp"

/// \file loopback_ot.hpp
/// A trusted-simulation OT engine for tests and for the benches that report
/// the algebraic floor of OMPE. The sender ships all n messages and the
/// receiver picks locally: the wire cost is n * len (an upper bound on any
/// real OT), there is no offline phase and NO privacy. Hand it to a
/// core::OtBundle through loopback_bundle(); nothing served can select it.

namespace ppds::test {

class LoopbackSender final : public crypto::OtSender {
 public:
  void send(net::Endpoint& channel, std::span<const Bytes> messages,
            std::size_t k) override {
    crypto::check_equal_lengths(messages);
    detail::require(k >= 1 && k <= messages.size(), "ot: bad k");
    ByteWriter w;
    for (const Bytes& m : messages) w.raw(m);
    channel.send(w.take());
  }
};

class LoopbackReceiver final : public crypto::OtReceiver {
 public:
  std::vector<Bytes> receive(net::Endpoint& channel,
                             std::span<const std::size_t> indices,
                             std::size_t n, std::size_t message_len) override {
    const Bytes bundle = channel.recv();
    detail::require(bundle.size() == n * message_len,
                    "loopback ot: bad bundle size");
    std::vector<Bytes> out;
    out.reserve(indices.size());
    for (std::size_t index : indices) {
      detail::require(index < n, "loopback ot: index out of range");
      const auto first =
          bundle.begin() + static_cast<std::ptrdiff_t>(index * message_len);
      out.emplace_back(first, first + static_cast<std::ptrdiff_t>(message_len));
    }
    return out;
  }
};

/// One party's bundle of loopback engines.
inline core::OtBundle loopback_bundle() {
  return core::OtBundle(std::make_unique<LoopbackSender>(),
                        std::make_unique<LoopbackReceiver>());
}

}  // namespace ppds::test
