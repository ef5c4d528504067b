#pragma once

#include <exception>
#include <functional>
#include <thread>
#include <utility>

#include "ppds/net/channel.hpp"

/// \file party.hpp
/// Helper to run a two-party protocol: each party body runs on its own
/// thread over a channel pair; exceptions from either side are re-thrown to
/// the caller (first the A side, then the B side).

namespace ppds::net {

/// Result of a two-party run: what each side returned plus traffic stats.
template <typename ResultA, typename ResultB>
struct TwoPartyOutcome {
  ResultA a;
  ResultB b;
  TrafficStats a_sent;
  TrafficStats b_sent;
};

/// Runs \p party_a and \p party_b concurrently over the GIVEN endpoints
/// (already connected; possibly decorated, e.g. by a fault injector). Blocks
/// until both finish. A throwing party closes the channel so its peer
/// unblocks with ProtocolError instead of hanging.
template <typename FnA, typename FnB>
auto run_two_party_on(Endpoint& end_a, Endpoint& end_b, FnA&& party_a,
                      FnB&& party_b)
    -> TwoPartyOutcome<std::invoke_result_t<FnA, Endpoint&>,
                       std::invoke_result_t<FnB, Endpoint&>> {
  using ResultA = std::invoke_result_t<FnA, Endpoint&>;
  using ResultB = std::invoke_result_t<FnB, Endpoint&>;

  ResultB result_b{};
  std::exception_ptr error_b;
  std::thread thread_b([&] {
    try {
      result_b = party_b(end_b);
    } catch (...) {
      error_b = std::current_exception();
      try {
        end_b.close();  // unblock the peer
      } catch (...) {   // already closed (e.g. by a disconnect fault)
      }
    }
  });

  ResultA result_a{};
  std::exception_ptr error_a;
  try {
    result_a = party_a(end_a);
  } catch (...) {
    error_a = std::current_exception();
    try {
      end_a.close();
    } catch (...) {
    }
  }

  thread_b.join();
  if (error_a) std::rethrow_exception(error_a);
  if (error_b) std::rethrow_exception(error_b);

  return {std::move(result_a), std::move(result_b), end_a.stats(),
          end_b.stats()};
}

/// Runs \p party_a and \p party_b concurrently over a fresh channel.
/// Both callables take an Endpoint&. Blocks until both finish.
template <typename FnA, typename FnB>
auto run_two_party(FnA&& party_a, FnB&& party_b, LatencyModel latency = {})
    -> TwoPartyOutcome<std::invoke_result_t<FnA, Endpoint&>,
                       std::invoke_result_t<FnB, Endpoint&>> {
  auto [end_a, end_b] = make_channel(latency);
  return run_two_party_on(end_a, end_b, std::forward<FnA>(party_a),
                          std::forward<FnB>(party_b));
}

}  // namespace ppds::net
