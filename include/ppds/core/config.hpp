#pragma once

#include <memory>
#include <optional>

#include "ppds/crypto/group.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/ompe/ompe.hpp"

/// \file config.hpp
/// Shared configuration of the two privacy-preserving schemes: which OMPE
/// backend, which OT engine, which security parameters. Both parties agree
/// on a SchemeConfig out of band (it contains only public parameters).
///
/// There is one private OT engine, the silent OT extension behind
/// crypto::BatchedOt{Sender,Receiver}: one batched Naor-Pinkas seed
/// agreement per engine, then hash/XOR transfers. The only alternative is
/// the loopback simulation, which has no privacy and exists for benches.

namespace ppds::core {

/// Which OT instantiation carries the k-out-of-M transfer. The values are
/// pinned: protocol_digest() hashes them.
enum class OtEngine : std::uint8_t {
  kPrecomputed = 1,  ///< silent OT extension over a batched Naor-Pinkas
                     ///< seed agreement; online transfers are hash+XOR
  kLoopback = 2,     ///< trusted simulation, benchmark-only (no privacy!)
};

struct SchemeConfig {
  ompe::OmpeParams ompe;
  OtEngine ot_engine = OtEngine::kPrecomputed;
  crypto::GroupId group = crypto::GroupId::kModp1536;

  /// Convenience presets. The default is private: the silent engine at the
  /// q=8, k=3 OMPE shape.
  static SchemeConfig secure_default() { return SchemeConfig{}; }

  /// Fast preset for throughput experiments: loopback OT, smaller q/k.
  static SchemeConfig fast_simulation() {
    SchemeConfig cfg;
    cfg.ot_engine = OtEngine::kLoopback;
    cfg.ompe.q = 4;
    cfg.ompe.k = 2;
    return cfg;
  }

  /// fast_simulation's OMPE shape with the private (silent) OT engine.
  static SchemeConfig silent() {
    SchemeConfig cfg = fast_simulation();
    cfg.ot_engine = OtEngine::kPrecomputed;
    return cfg;
  }
};

/// One homogeneous block of precomputed-OT demand: \p count direct
/// 1-of-\p arity slots. See ot_demand_per_query().
struct OtDemand {
  std::size_t arity = 2;
  std::size_t count = 0;
};

/// Per-party OT engine bundle. The private engines run over the
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
  OtBundle(const SchemeConfig& cfg, Rng& rng);

  /// Offline phase (no-op for the loopback engine): reserves the
  /// (arity, count) block, with \p repeat scaling a per-query demand to a
  /// whole batch. Both sides must pass the same demand.
  void prepare_sender(net::Endpoint& channel, const OtDemand& demand,
                      std::size_t repeat = 1);
  void prepare_receiver(net::Endpoint& channel, const OtDemand& demand,
                        std::size_t repeat = 1);

  /// Fails the bundle closed after a mid-protocol error: wipes and poisons
  /// the OT engines (see BatchedOtSender::abort — half-consumed correlated
  /// randomness must never be resumed). Safe to call for every engine; the
  /// loopback engine has nothing to discard.
  void abort() noexcept;

  crypto::OtSender& sender();
  crypto::OtReceiver& receiver();

  /// Private-engine views (nullptr for the loopback engine): the
  /// audit/observability hooks live on the concrete types.
  crypto::BatchedOtSender* batched_sender() { return batched_sender_; }
  crypto::BatchedOtReceiver* batched_receiver() { return batched_receiver_; }

 private:
  std::unique_ptr<crypto::OtSender> sender_;
  std::unique_ptr<crypto::OtReceiver> receiver_;
  /// Non-owning views into sender_/receiver_ for the private engine.
  crypto::BatchedOtSender* batched_sender_ = nullptr;
  crypto::BatchedOtReceiver* batched_receiver_ = nullptr;
};

/// Demand one OMPE evaluation places on the OT engine: m direct 1-of-M
/// slots. Throws
/// InvalidArgument on shapes ompe::validate() rejects (M above the direct
/// bound among them).
OtDemand ot_demand_per_query(const ompe::OmpeParams& params);

}  // namespace ppds::core
