#include "ppds/server/client.hpp"

#include "ppds/core/session.hpp"

namespace ppds::server {

namespace {

void select_service(net::Endpoint& channel, Service service) {
  // The selector is the only frame that travels at stage kNone / session 0;
  // the session layer takes over from kHandshake.
  Bytes select(1);
  select[0] = static_cast<std::uint8_t>(service);
  channel.send(std::move(select));
}

void reset_for_next_session(net::Endpoint& channel) {
  channel.set_stage(net::Stage::kNone);
  channel.set_session_id(0);
}

}  // namespace

std::vector<int> client_classify(
    net::Endpoint& channel, const Scenario& scenario,
    const std::vector<std::vector<double>>& samples, Rng& rng,
    core::OtBundle* ot) {
  // A fresh bundle would restart the seed agreement the daemon keeps.
  if (ot == nullptr) throw InvalidArgument("client_classify: null OtBundle");
  select_service(channel, Service::kClassification);
  const core::ClassificationClient client(scenario.profile, scenario.config);
  std::vector<int> labels = core::classify_session(
      client, scenario.profile, scenario.config, channel, samples, rng, ot);
  reset_for_next_session(channel);
  return labels;
}

double client_similarity(net::Endpoint& channel, const Scenario& scenario,
                         Rng& rng) {
  select_service(channel, Service::kSimilarity);
  const core::SimilarityClient client(scenario.client_model, scenario.space,
                                      scenario.config);
  const double t = core::evaluate_similarity_session(
      client, scenario.profile.kernel, scenario.space, scenario.config,
      channel, rng);
  reset_for_next_session(channel);
  return t;
}

DaemonStatsSnapshot client_health(net::Endpoint& channel) {
  select_service(channel, Service::kHealth);
  // The reply is an ordinary data frame at stage kNone / session 0 — the
  // connection's seq discipline continues, no reset needed.
  return decode_stats(channel.recv());
}

void client_goodbye(net::Endpoint& channel) {
  select_service(channel, Service::kGoodbye);
  channel.close();
}

}  // namespace ppds::server
