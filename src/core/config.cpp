#include "ppds/core/config.hpp"

#include <string>

#include "ppds/common/error.hpp"

namespace ppds::core {

OtBundle::OtBundle(const SchemeConfig& cfg, Rng& rng)
    : OtBundle(std::make_unique<crypto::SilentPadSender>(
                   crypto::shared_group(cfg.group), rng),
               std::make_unique<crypto::SilentPadReceiver>(
                   crypto::shared_group(cfg.group), rng)) {}

OtBundle::OtBundle(std::unique_ptr<crypto::OtSender> sender,
                   std::unique_ptr<crypto::OtReceiver> receiver)
    : sender_(std::move(sender)), receiver_(std::move(receiver)) {
  detail::require(sender_ != nullptr && receiver_ != nullptr,
                  "OtBundle: null engine");
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

OtBundle& require_bundle(OtBundle* ot, const char* caller) {
  if (ot == nullptr) {
    throw InvalidArgument(std::string(caller) + ": null OtBundle");
  }
  return *ot;
}

OtDemand ot_demand_per_query(const ompe::OmpeParams& params) {
  ompe::validate(params);
  return OtDemand{params.big_m(), params.m()};
}

}  // namespace ppds::core
