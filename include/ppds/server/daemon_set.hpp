#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "ppds/net/socket.hpp"
#include "ppds/server/scenario.hpp"

/// \file daemon_set.hpp
/// DaemonSet: a failover client driving a fleet of ppdsd replicas.
///
/// A query batch is sharded into fixed-size chunks (chunk boundaries and
/// per-chunk seeds depend only on the batch seed, never on which replica
/// serves what), and one worker thread per daemon address drains a shared
/// chunk queue over a keep-alive connection. Faults move work, not lose it:
///
///   - busy(over-cap / rate-limited): the chunk is requeued — any idle
///     replica may take it immediately — and this worker backs off for
///     max(the daemon's retry-after hint, the deterministic exponential
///     backoff) before knocking again.
///   - busy(draining) or a dead daemon (connect refused, EOF, timeout,
///     repeated failures): the replica is marked lost, its in-hand chunk
///     is requeued, and the surviving workers finish the batch.
///
/// The batch completes as long as ONE replica survives, and the labels are
/// bit-identical no matter which replica served which chunk: a chunk's
/// client randomness is a pure function of (seed, chunk, attempt) — fresh
/// per attempt, never resumed, the privacy rule from RetryPolicy — and
/// the classification labels themselves are randomness-invariant (sign(d)
/// survives the masking), so replica identity cannot leak into results.
/// Backoff delays are equally reproducible: backoff() is a pure function
/// of (policy, seed, chunk, attempt).

namespace ppds::server {

/// Whole-session retry policy. A failed session (any ProtocolError:
/// timeout, corrupted frame, closed channel, backpressure) is discarded
/// entirely — its channel, its OT state, its randomness — and re-run from
/// the handshake with FRESH per-attempt randomness. This is safe because
/// every OMPE evaluation draws fresh amplifiers, masks and covers: a
/// retried query reveals nothing beyond what one clean run reveals
/// (docs/PROTOCOL.md §7; resuming a half-consumed session would not be).
struct RetryPolicy {
  std::size_t max_attempts = 1;  ///< 1 = fail on first error
  std::chrono::milliseconds backoff{0};  ///< sleep before attempt n >= 1
  double backoff_multiplier = 2.0;       ///< exponential growth per attempt
  /// Deterministic jitter: the backoff is scaled by a factor in
  /// [1 - jitter, 1 + jitter] drawn from a SplitMix64 stream over the
  /// session seed (reproducible, unlike wall-clock-seeded jitter).
  double jitter = 0.0;
};

/// Per-attempt RNG seed: attempt 0 uses \p base EXACTLY; attempts n >= 1
/// derive fresh decorrelated streams — a retried session re-randomizes
/// everything, because resuming or replaying half-consumed OT randomness
/// would be a privacy hole, not a retry.
std::uint64_t retry_attempt_seed(std::uint64_t base, std::size_t attempt);

struct DaemonSetOptions {
  /// Queries per chunk = per session.
  std::size_t chunk_size = 8;
  /// Retry shape: max_attempts bounds CONSECUTIVE failures a worker
  /// tolerates on its replica before declaring it lost, and (scaled by the
  /// replica count) the total attempts a chunk may consume before the
  /// batch fails. backoff/multiplier/jitter drive the deterministic
  /// backoff schedule.
  RetryPolicy retry{
      /*max_attempts=*/4, std::chrono::milliseconds{5},
      /*backoff_multiplier=*/2.0, /*jitter=*/0.5};
  std::chrono::milliseconds connect_timeout{2000};
  std::chrono::milliseconds recv_timeout{30000};
  net::SocketOptions socket;  ///< applied to every connection
};

/// Monotone counters describing how the batch actually ran.
struct DaemonSetStats {
  std::atomic<std::uint64_t> chunks_ok{0};
  /// Chunks requeued after a failed attempt (busy, disconnect, timeout) —
  /// each is a failover opportunity for another replica.
  std::atomic<std::uint64_t> chunk_retries{0};
  std::atomic<std::uint64_t> busy_sheds{0};  ///< busy frames received
  std::atomic<std::uint64_t> attempts_failed{0};  ///< non-busy failures
  std::atomic<std::uint64_t> replicas_lost{0};    ///< addresses given up on
};

class DaemonSet {
 public:
  /// \p addresses are the replica daemons; all must serve \p scenario
  /// (handshakes fail otherwise).
  DaemonSet(Scenario scenario, std::vector<net::SocketAddress> addresses,
            DaemonSetOptions options = {});

  /// Classifies all samples across the fleet. Returns labels in input
  /// order; deterministic given \p seed regardless of replica scheduling.
  /// Throws ProtocolError when a chunk exhausts its attempt budget or
  /// every replica is lost with work outstanding.
  std::vector<int> classify(const std::vector<std::vector<double>>& samples,
                            std::uint64_t seed);

  const DaemonSetStats& stats() const { return stats_; }
  std::size_t replicas() const { return addresses_.size(); }

  /// The deterministic backoff before attempt n >= 1 of chunk \p chunk:
  /// exponential in the attempt, scaled by a SplitMix64 jitter drawn from
  /// the chunk's stream of \p seed. A pure function, so tests (and
  /// incident reruns) can replay the exact schedule a batch used.
  static std::chrono::milliseconds backoff(const RetryPolicy& retry,
                                           std::uint64_t seed,
                                           std::size_t chunk,
                                           std::size_t attempt);

 private:
  struct Batch;  // shared chunk queue + results (defined in the .cpp)

  void worker(std::size_t address_index, Batch& batch,
              const std::vector<std::vector<double>>& samples,
              std::uint64_t seed);

  Scenario scenario_;
  std::vector<net::SocketAddress> addresses_;
  DaemonSetOptions options_;
  DaemonSetStats stats_;
};

}  // namespace ppds::server
