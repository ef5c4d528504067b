#pragma once

#include <memory>

#include "ppds/crypto/group.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/crypto/silent_ot.hpp"
#include "ppds/ompe/ompe.hpp"

/// \file config.hpp
/// Shared configuration of the two privacy-preserving schemes: which OMPE
/// backend, which security parameters, which DH group. Both parties agree
/// on a SchemeConfig out of band (it contains only public parameters).
///
/// There is one OT engine, the silent OT extension
/// crypto::SilentPad{Sender,Receiver}: one batched Naor-Pinkas seed
/// agreement per engine, then hash/XOR transfers. An OtBundle carries one
/// engine per role; every two-party call takes the connection's bundle.

namespace ppds::core {

struct SchemeConfig {
  ompe::OmpeParams ompe;
  crypto::GroupId group = crypto::GroupId::kModp1536;

  /// Convenience presets. The default is the q=8, k=3 OMPE shape.
  static SchemeConfig secure_default() { return SchemeConfig{}; }

  /// The smaller q=4, k=2 OMPE shape.
  static SchemeConfig silent() {
    SchemeConfig cfg;
    cfg.ompe.q = 4;
    cfg.ompe.k = 2;
    return cfg;
  }
};

/// One homogeneous block of precomputed-OT demand: \p count direct
/// 1-of-\p arity slots. See ot_demand_per_query().
struct OtDemand {
  std::size_t arity = 2;
  std::size_t count = 0;
};

/// Per-party OT engine bundle: one sender and one receiver engine, which
/// a connection keeps across its sessions. The silent engines run over the
/// process-wide shared_group() so the fixed-base generator table is built
/// once and stays warm across sessions.
///
/// The engines are ready immediately: the first transfer runs the seed
/// agreement and stages slots on demand. Calling prepare_sender() on the
/// sender side while the receiver concurrently calls prepare_receiver()
/// (same demand, see ot_demand_per_query()) stages a whole session's
/// slots in one correction block. A bundle kept across sessions (one per
/// connection) pays the seed agreement once.
class OtBundle {
 public:
  /// The silent engines over cfg.group, drawing from \p rng (which must
  /// outlive the bundle).
  OtBundle(const SchemeConfig& cfg, Rng& rng);

  /// Any other engine pair, e.g. a test harness's.
  OtBundle(std::unique_ptr<crypto::OtSender> sender,
           std::unique_ptr<crypto::OtReceiver> receiver);

  /// Offline phase: reserves the (arity, count) block, with \p repeat
  /// scaling a per-query demand to a whole batch. Both sides must pass the
  /// same demand.
  void prepare_sender(net::Endpoint& channel, const OtDemand& demand,
                      std::size_t repeat = 1);
  void prepare_receiver(net::Endpoint& channel, const OtDemand& demand,
                        std::size_t repeat = 1);

  /// Fails the bundle closed after a mid-protocol error: wipes and poisons
  /// the OT engines (see SilentPadSender::abort — half-consumed correlated
  /// randomness must never be resumed).
  void abort() noexcept;

  crypto::OtSender& sender() { return *sender_; }
  crypto::OtReceiver& receiver() { return *receiver_; }

  /// The silent receiver engine (nullptr for any other engine). Kept for
  /// the benchmark harness, which reads its sync_expansions().
  crypto::SilentPadReceiver* batched_receiver() {
    return dynamic_cast<crypto::SilentPadReceiver*>(receiver_.get());
  }

 private:
  std::unique_ptr<crypto::OtSender> sender_;
  std::unique_ptr<crypto::OtReceiver> receiver_;
};

/// Returns *\p ot; throws InvalidArgument naming \p caller when it is null.
/// Every two-party call checks its bundle this way before it sends a byte.
OtBundle& require_bundle(OtBundle* ot, const char* caller);

/// Demand one OMPE evaluation places on the OT engine: m direct 1-of-M
/// slots. Throws
/// InvalidArgument on shapes ompe::validate() rejects (M above the direct
/// bound among them).
OtDemand ot_demand_per_query(const ompe::OmpeParams& params);

}  // namespace ppds::core
