#include "ppds/core/config.hpp"

namespace ppds::core {

OtBundle::OtBundle(const SchemeConfig& cfg, Rng& rng) {
  if (cfg.ot_engine == OtEngine::kLoopback) {
    sender_ = std::make_unique<crypto::LoopbackSender>();
    receiver_ = std::make_unique<crypto::LoopbackReceiver>();
    return;
  }
  const crypto::DhGroup& group = crypto::shared_group(cfg.group);
  auto sender = std::make_unique<crypto::BatchedOtSender>(group, rng);
  auto receiver = std::make_unique<crypto::BatchedOtReceiver>(group, rng);
  batched_sender_ = sender.get();
  batched_receiver_ = receiver.get();
  sender_ = std::move(sender);
  receiver_ = std::move(receiver);
}

void OtBundle::prepare_sender(net::Endpoint& channel, const OtDemand& demand,
                              std::size_t repeat) {
  if (batched_sender_ == nullptr || demand.count == 0) return;
  batched_sender_->reserve(channel, demand.arity, demand.count * repeat);
}

void OtBundle::prepare_receiver(net::Endpoint& channel, const OtDemand& demand,
                                std::size_t repeat) {
  if (batched_receiver_ == nullptr || demand.count == 0) return;
  batched_receiver_->reserve(channel, demand.arity, demand.count * repeat);
}

void OtBundle::abort() noexcept {
  if (batched_sender_ != nullptr) batched_sender_->abort();
  if (batched_receiver_ != nullptr) batched_receiver_->abort();
}

crypto::OtSender& OtBundle::sender() {
  detail::require(sender_ != nullptr, "OtBundle: no sender engine");
  return *sender_;
}

crypto::OtReceiver& OtBundle::receiver() {
  detail::require(receiver_ != nullptr, "OtBundle: no receiver engine");
  return *receiver_;
}

OtDemand ot_demand_per_query(const ompe::OmpeParams& params) {
  ompe::validate(params);
  return OtDemand{params.big_m(), params.m()};
}

}  // namespace ppds::core
