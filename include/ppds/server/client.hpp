#pragma once

#include <vector>

#include "ppds/net/channel.hpp"
#include "ppds/server/scenario.hpp"
#include "ppds/server/stats.hpp"

/// \file client.hpp
/// Client side of the ppdsd connection protocol (docs/PROTOCOL.md §8.3).
///
/// A connection carries any number of sessions back to back. Each call
/// sends the one-byte service selector at stage kNone / session 0, runs
/// the selected protocol exactly as the in-process path would (the session
/// layer is reused verbatim — that is what keeps socket transcripts
/// bit-identical), and resets the frame state for the next session.
/// goodbye() ends the connection explicitly; simply closing works too (the
/// daemon counts a boundary EOF as a clean close), but goodbye keeps the
/// daemon's books exact.

namespace ppds::server {

/// One classification session: returns the class labels for \p samples.
/// \p ot is the connection's OtBundle, reused by every session on it as the
/// daemon reuses its own (silent scenarios: the PPRF seed agreement runs
/// once — see core::classify_session). Throws InvalidArgument on a null
/// bundle, before anything is sent.
std::vector<int> client_classify(
    net::Endpoint& channel, const Scenario& scenario,
    const std::vector<std::vector<double>>& samples, Rng& rng,
    core::OtBundle* ot);

/// One similarity session: returns T between the scenario's client model
/// and the daemon's server model (smaller = more similar).
double client_similarity(net::Endpoint& channel, const Scenario& scenario,
                         Rng& rng);

/// Health probe: returns the daemon's counter snapshot (active sessions,
/// queue depths, shed counts). Answered even while the daemon drains, so a
/// probe can watch a shutdown progress; the connection stays alive for
/// further sessions.
DaemonStatsSnapshot client_health(net::Endpoint& channel);

/// Ends the connection cleanly.
void client_goodbye(net::Endpoint& channel);

}  // namespace ppds::server
