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

namespace ppds::core {

/// Which OT instantiation carries the k-out-of-M transfer.
enum class OtEngine {
  kNaorPinkas,   ///< real public-key OT (DhGroup modexp)
  kPrecomputed,  ///< Naor-Pinkas moved offline; online transfers are
                 ///< hash+XOR only (the paper's precomputation remark)
  kLoopback,     ///< trusted simulation, benchmark-only (no privacy!)
};

struct SchemeConfig {
  ompe::OmpeParams ompe;
  OtEngine ot_engine = OtEngine::kNaorPinkas;
  crypto::GroupId group = crypto::GroupId::kModp1536;

  /// Silent-OT offline phase for OtEngine::kPrecomputed: one PPRF seed
  /// agreement replaces the per-batch DH exponentiations, and slot refills
  /// become 16-byte correction rows instead of group elements. CHANGES the
  /// wire format, so both parties must agree — it is hashed into the
  /// protocol digest (core/session.hpp).
  bool silent_precompute = false;

  /// Background pad-refill service (crypto/reservoir.hpp): expand silent-OT
  /// pads off the protocol thread. Purely local scheduling — never touches
  /// the wire (transcripts are bit-identical either way), so it is EXCLUDED
  /// from the protocol digest.
  bool reservoir = false;

  /// Convenience presets.
  static SchemeConfig secure_default() { return SchemeConfig{}; }

  /// Fast preset for throughput experiments: loopback OT, smaller q/k.
  static SchemeConfig fast_simulation() {
    SchemeConfig cfg;
    cfg.ot_engine = OtEngine::kLoopback;
    cfg.ompe.q = 4;
    cfg.ompe.k = 2;
    return cfg;
  }

  /// Silent-precompute preset: fast_simulation's OMPE shape with the
  /// precomputed engine running the PPRF offline phase.
  static SchemeConfig silent() {
    SchemeConfig cfg = fast_simulation();
    cfg.ot_engine = OtEngine::kPrecomputed;
    cfg.silent_precompute = true;
    return cfg;
  }
};

/// One homogeneous block of precomputed-OT demand: \p count direct
/// 1-of-\p arity slots. See ot_demand_per_query().
struct OtDemand {
  std::size_t arity = 2;
  std::size_t count = 0;
};

/// Per-party OT engine bundle. Naor-Pinkas-based engines run over the
/// process-wide shared_group() so the fixed-base generator table is built
/// once and stays warm across sessions. The precomputed engines top their
/// pools up crypto::kRefillBatch slots at a time and, with
/// silent_precompute, refill against crypto::kSilentLowWater.
///
/// For OtEngine::kPrecomputed the engines are ready immediately and refill
/// their slot pools on demand; calling prepare_sender() on the sender side
/// while the receiver concurrently calls prepare_receiver() (same demand,
/// see ot_demand_per_query()) front-loads a whole session's offline phase
/// into one batched round trip.
class OtBundle {
 public:
  OtBundle(const SchemeConfig& cfg, Rng& rng);

  /// Offline phase (no-op unless engine == kPrecomputed): reserves the
  /// (arity, count) block, with \p repeat scaling a per-query demand to a
  /// whole batch. Both sides must pass the same demand.
  void prepare_sender(net::Endpoint& channel, const OtDemand& demand,
                      std::size_t repeat = 1);
  void prepare_receiver(net::Endpoint& channel, const OtDemand& demand,
                        std::size_t repeat = 1);

  /// Fails the bundle closed after a mid-protocol error: wipes and poisons
  /// any precomputed OT slot pools (see BatchedOtSender::abort — a half-
  /// consumed batch must never be resumed). Safe to call for every engine;
  /// the stateless engines have nothing to discard.
  void abort() noexcept;

  /// Hooks both silent engines (if cfg.silent_precompute) to a background
  /// refill reservoir. The destructor detaches; no-op otherwise.
  void attach_reservoir(crypto::PadReservoir& reservoir);

  crypto::OtSender& sender();
  crypto::OtReceiver& receiver();

  /// Batched-engine views (nullptr unless engine == kPrecomputed): the
  /// audit/observability hooks live on the concrete types.
  crypto::BatchedOtSender* batched_sender() { return batched_sender_; }
  crypto::BatchedOtReceiver* batched_receiver() { return batched_receiver_; }

 private:
  std::unique_ptr<crypto::OtSender> sender_;
  std::unique_ptr<crypto::OtReceiver> receiver_;
  /// Non-owning views into sender_/receiver_ when engine == kPrecomputed.
  crypto::BatchedOtSender* batched_sender_ = nullptr;
  crypto::BatchedOtReceiver* batched_receiver_ = nullptr;
};

/// Demand one OMPE evaluation places on the precomputed-OT pools: m direct
/// 1-of-M slots, one offline exponentiation per transfer. Throws
/// InvalidArgument on shapes ompe::validate() rejects (M above the direct
/// bound among them).
OtDemand ot_demand_per_query(const ompe::OmpeParams& params);

}  // namespace ppds::core
