#include "ppds/core/config.hpp"

#include "ppds/crypto/silent_ot.hpp"

namespace ppds::core {

OtBundle::OtBundle(const SchemeConfig& cfg, Rng& rng) {
  const crypto::DhGroup* group = cfg.ot_engine == OtEngine::kLoopback
                                     ? nullptr
                                     : &crypto::shared_group(cfg.group);
  switch (cfg.ot_engine) {
    case OtEngine::kNaorPinkas:
      sender_ = std::make_unique<crypto::NaorPinkasSender>(*group, rng);
      receiver_ = std::make_unique<crypto::NaorPinkasReceiver>(*group, rng);
      break;
    case OtEngine::kPrecomputed: {
      auto sender = std::make_unique<crypto::BatchedOtSender>(
          *group, rng, crypto::kRefillBatch);
      auto receiver = std::make_unique<crypto::BatchedOtReceiver>(
          *group, rng, crypto::kRefillBatch);
      if (cfg.silent_precompute) {
        sender->enable_silent(crypto::kSilentLowWater);
        receiver->enable_silent(crypto::kSilentLowWater);
      }
      batched_sender_ = sender.get();
      batched_receiver_ = receiver.get();
      sender_ = std::move(sender);
      receiver_ = std::move(receiver);
      break;
    }
    case OtEngine::kLoopback:
      sender_ = std::make_unique<crypto::LoopbackSender>();
      receiver_ = std::make_unique<crypto::LoopbackReceiver>();
      break;
  }
}

namespace {

/// Merges duplicate arities (reserve() has ensure-at-least semantics, so
/// two blocks of the same arity must be summed before reserving) and scales
/// by the batch size. Order of first appearance is preserved so both
/// parties issue their offline round trips in the same sequence.
std::vector<OtDemand> merge_demands(std::span<const OtDemand> demands,
                                    std::size_t repeat) {
  std::vector<OtDemand> merged;
  for (const OtDemand& d : demands) {
    if (d.count == 0) continue;
    bool found = false;
    for (OtDemand& m : merged) {
      if (m.arity == d.arity) {
        m.count += d.count * repeat;
        found = true;
        break;
      }
    }
    if (!found) merged.push_back(OtDemand{d.arity, d.count * repeat});
  }
  return merged;
}

}  // namespace

void OtBundle::prepare_sender(net::Endpoint& channel,
                              std::span<const OtDemand> demands,
                              std::size_t repeat) {
  if (batched_sender_ == nullptr) return;
  for (const OtDemand& d : merge_demands(demands, repeat)) {
    batched_sender_->reserve(channel, d.arity, d.count);
  }
}

void OtBundle::prepare_receiver(net::Endpoint& channel,
                                std::span<const OtDemand> demands,
                                std::size_t repeat) {
  if (batched_receiver_ == nullptr) return;
  for (const OtDemand& d : merge_demands(demands, repeat)) {
    batched_receiver_->reserve(channel, d.arity, d.count);
  }
}

void OtBundle::abort() noexcept {
  if (batched_sender_ != nullptr) batched_sender_->abort();
  if (batched_receiver_ != nullptr) batched_receiver_->abort();
}

void OtBundle::attach_reservoir(crypto::PadReservoir& reservoir) {
  if (batched_sender_ != nullptr) batched_sender_->attach_reservoir(reservoir);
  if (batched_receiver_ != nullptr) {
    batched_receiver_->attach_reservoir(reservoir);
  }
}

crypto::OtSender& OtBundle::sender() {
  detail::require(sender_ != nullptr, "OtBundle: no sender engine");
  return *sender_;
}

crypto::OtReceiver& OtBundle::receiver() {
  detail::require(receiver_ != nullptr, "OtBundle: no receiver engine");
  return *receiver_;
}

std::vector<OtDemand> ot_demand_per_query(const ompe::OmpeParams& params,
                                          unsigned degree) {
  const std::size_t m = params.m(degree);
  const std::size_t big_m = params.big_m(degree);
  if (big_m <= crypto::kMaxDirectArity) return {OtDemand{big_m, m}};
  return {OtDemand{2, m * crypto::index_bits(big_m)}};
}

}  // namespace ppds::core
