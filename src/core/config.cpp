#include "ppds/core/config.hpp"

namespace ppds::core {

OtBundle::OtBundle(const SchemeConfig& cfg, Rng& rng) {
  if (cfg.ot_engine == OtEngine::kLoopback) {
    sender_ = std::make_unique<crypto::LoopbackSender>();
    receiver_ = std::make_unique<crypto::LoopbackReceiver>();
    return;
  }
  const crypto::DhGroup& group = crypto::shared_group(cfg.group);
  sender_ = std::make_unique<crypto::SilentPadSender>(group, rng);
  receiver_ = std::make_unique<crypto::SilentPadReceiver>(group, rng);
}

void OtBundle::prepare_sender(net::Endpoint& channel, const OtDemand& demand,
                              std::size_t repeat) {
  if (demand.count == 0) return;
  sender_->reserve(channel, demand.arity, demand.count * repeat);
}

void OtBundle::prepare_receiver(net::Endpoint& channel, const OtDemand& demand,
                                std::size_t repeat) {
  if (demand.count == 0) return;
  receiver_->reserve(channel, demand.arity, demand.count * repeat);
}

void OtBundle::abort() noexcept {
  sender_->abort();
  receiver_->abort();
}

OtDemand ot_demand_per_query(const ompe::OmpeParams& params) {
  ompe::validate(params);
  return OtDemand{params.big_m(), params.m()};
}

}  // namespace ppds::core
