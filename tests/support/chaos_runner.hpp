#pragma once

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "ppds/core/session.hpp"
#include "ppds/net/party.hpp"
#include "ppds/net/socket.hpp"
#include "ppds/server/daemon_set.hpp"

#include "faulty.hpp"

/// \file chaos_runner.hpp
/// Sequential session runner for the chaos tests: each session stream gets
/// a fresh wire per attempt (in-process queues or an AF_UNIX socket pair,
/// both decorated with Faulty), a per-attempt receive deadline, and
/// whole-session retry of ProtocolError with server::RetryPolicy's
/// deterministic backoff. Every seed is derived from (seed, fault_seed,
/// stream, attempt) alone, so a chaos seed perturbs the same frames on
/// every run and on either wire.

namespace ppds::test {

enum class Wire { kInProcess, kSocketPair };

struct ChaosOptions {
  Wire wire = Wire::kInProcess;
  FaultSpec faults;  ///< applied to both directions' outgoing frames
  /// Seed of the fault-decision streams; every (stream, attempt, side)
  /// derives its own SplitMix64 stream from it.
  std::uint64_t fault_seed = 0;
  /// recv() deadline measured from attempt start; zero blocks forever.
  std::chrono::milliseconds recv_timeout{0};
  server::RetryPolicy retry;
};

using Wires =
    std::pair<std::unique_ptr<net::Endpoint>, std::unique_ptr<net::Endpoint>>;

/// One attempt's connected pair (first = party A, the server).
inline Wires make_faulty_wire(const ChaosOptions& chaos, std::uint64_t seed_a,
                              std::uint64_t seed_b) {
  if (chaos.wire == Wire::kSocketPair) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::system_error(errno, std::generic_category(), "socketpair");
    }
    return {std::make_unique<Faulty<net::SocketEndpoint>>(chaos.faults,
                                                          seed_a, fds[0]),
            std::make_unique<Faulty<net::SocketEndpoint>>(chaos.faults,
                                                          seed_b, fds[1])};
  }
  auto [a, b] = net::make_channel();
  return {std::make_unique<Faulty<net::Endpoint>>(chaos.faults, seed_a,
                                                  std::move(a)),
          std::make_unique<Faulty<net::Endpoint>>(chaos.faults, seed_b,
                                                  std::move(b))};
}

/// Runs session \p stream to completion: \p serve(channel, rng) as party A
/// and \p query(channel, rng) as party B, retrying on ProtocolError. Returns
/// what \p query returned; rethrows the last attempt's ProtocolError.
template <typename Serve, typename Query>
auto run_session(const ChaosOptions& chaos, std::uint64_t seed,
                 std::size_t stream, const Serve& serve, const Query& query) {
  const std::uint64_t fault_stream = splitmix64(chaos.fault_seed, stream);
  const std::size_t attempts =
      std::max<std::size_t>(1, chaos.retry.max_attempts);
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      auto [a, b] =
          make_faulty_wire(chaos, splitmix64(fault_stream, 2 * attempt),
                           splitmix64(fault_stream, 2 * attempt + 1));
      if (chaos.recv_timeout.count() > 0) {
        const auto deadline = net::Deadline::after(chaos.recv_timeout);
        a->set_recv_deadline(deadline);
        b->set_recv_deadline(deadline);
      }
      Rng rng_a(server::retry_attempt_seed(splitmix64(seed, 2 * stream),
                                           attempt));
      Rng rng_b(server::retry_attempt_seed(splitmix64(seed, 2 * stream + 1),
                                           attempt));
      auto outcome = net::run_two_party_on(
          *a, *b,
          [&](net::Endpoint& channel) {
            serve(channel, rng_a);
            return 0;
          },
          [&](net::Endpoint& channel) { return query(channel, rng_b); });
      return std::move(outcome.b);
    } catch (const ProtocolError&) {
      if (attempt + 1 >= attempts) throw;
      const auto delay =
          server::DaemonSet::backoff(chaos.retry, seed, stream, attempt + 1);
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
    }
  }
}

/// Classifies \p samples, \p chunk_size per session; chunk c is stream c.
inline std::vector<int> classify_chunks(
    const core::ClassificationServer& server,
    const core::ClassificationClient& client,
    const core::ClassificationProfile& profile,
    const core::SchemeConfig& config,
    const std::vector<std::vector<double>>& samples, std::uint64_t seed,
    std::size_t chunk_size, const ChaosOptions& chaos = {}) {
  std::vector<int> labels;
  for (std::size_t c = 0; c * chunk_size < samples.size(); ++c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(begin + chunk_size, samples.size());
    const std::vector<std::vector<double>> chunk(
        samples.begin() + static_cast<std::ptrdiff_t>(begin),
        samples.begin() + static_cast<std::ptrdiff_t>(end));
    const std::vector<int> part = run_session(
        chaos, seed, c,
        [&](net::Endpoint& channel, Rng& rng) {
          core::serve_session(server, profile, config, channel, rng);
        },
        [&](net::Endpoint& channel, Rng& rng) {
          return core::classify_session(client, profile, config, channel,
                                        chunk, rng);
        });
    labels.insert(labels.end(), part.begin(), part.end());
  }
  return labels;
}

/// One similarity evaluation on stream 0.
inline double evaluate_similarity(const core::SimilarityServer& server,
                                  const core::SimilarityClient& client,
                                  const svm::Kernel& kernel,
                                  const core::DataSpace& space,
                                  const core::SchemeConfig& config,
                                  std::uint64_t seed,
                                  const ChaosOptions& chaos = {}) {
  return run_session(
      chaos, seed, 0,
      [&](net::Endpoint& channel, Rng& rng) {
        core::serve_similarity_session(server, kernel, space, config, channel,
                                       rng);
      },
      [&](net::Endpoint& channel, Rng& rng) {
        return core::evaluate_similarity_session(client, kernel, space, config,
                                                 channel, rng);
      });
}

}  // namespace ppds::test
