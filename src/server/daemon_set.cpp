#include "ppds/server/daemon_set.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "ppds/common/error.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/net/control.hpp"
#include "ppds/server/client.hpp"

namespace ppds::server {

/// Shared state of one classify() call. Workers pull chunk indices from
/// `pending` under `mu`; a failed attempt pushes the chunk back and wakes
/// everyone (that wake IS the failover — any idle replica grabs it).
/// Workers exit when every chunk is resolved or their replica is lost;
/// classify() detects "all replicas lost, work outstanding" after the
/// joins, so no thread ever waits on a queue nobody can serve.
struct DaemonSet::Batch {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> pending;
  std::vector<std::size_t> attempts;        ///< per chunk, monotone
  std::vector<std::vector<int>> results;    ///< per chunk
  std::vector<bool> done;
  std::size_t resolved = 0;                 ///< done or permanently failed
  std::size_t failed_chunks = 0;            ///< attempt budget exhausted
  std::size_t chunk_count = 0;
  std::size_t attempt_cap = 0;
};

DaemonSet::DaemonSet(Scenario scenario,
                     std::vector<net::SocketAddress> addresses,
                     DaemonSetOptions options)
    : scenario_(std::move(scenario)),
      addresses_(std::move(addresses)),
      options_(std::move(options)) {
  if (addresses_.empty()) {
    throw InvalidArgument("daemon set: need at least one address");
  }
  if (options_.chunk_size == 0) {
    throw InvalidArgument("daemon set: chunk_size must be >= 1");
  }
}

std::uint64_t retry_attempt_seed(std::uint64_t base, std::size_t attempt) {
  return attempt == 0 ? base : splitmix64(base, attempt);
}

std::chrono::milliseconds DaemonSet::backoff(const RetryPolicy& retry,
                                             std::uint64_t seed,
                                             std::size_t chunk,
                                             std::size_t attempt) {
  if (retry.backoff.count() <= 0) return std::chrono::milliseconds{0};
  double ms = static_cast<double>(retry.backoff.count()) *
              std::pow(retry.backoff_multiplier,
                       static_cast<double>(attempt) - 1.0);
  if (retry.jitter > 0.0) {
    // Drawn from the chunk's even stream (its client randomness uses the
    // odd one), so the schedule is a pure function of (seed, chunk,
    // attempt).
    const std::uint64_t stream = splitmix64(seed, 2 * chunk);
    const double u =
        static_cast<double>(splitmix64(stream, attempt) >> 11) *
        0x1.0p-53;  // [0, 1)
    ms *= 1.0 + retry.jitter * (2.0 * u - 1.0);
  }
  return std::chrono::milliseconds{
      static_cast<std::chrono::milliseconds::rep>(std::fmax(0.0, ms))};
}

std::vector<int> DaemonSet::classify(
    const std::vector<std::vector<double>>& samples, std::uint64_t seed) {
  if (samples.empty()) {
    throw InvalidArgument("daemon set: no samples");
  }
  const std::size_t chunks =
      (samples.size() + options_.chunk_size - 1) / options_.chunk_size;

  Batch batch;
  batch.chunk_count = chunks;
  batch.attempts.assign(chunks, 0);
  batch.results.assign(chunks, {});
  batch.done.assign(chunks, false);
  // Total attempt budget per chunk: max_attempts consecutive failures per
  // replica, across every replica, before the chunk is declared dead (a
  // perpetually-busy fleet must fail the batch, not livelock it).
  batch.attempt_cap =
      std::max<std::size_t>(1, options_.retry.max_attempts) *
      addresses_.size();
  for (std::size_t c = 0; c < chunks; ++c) batch.pending.push_back(c);

  std::vector<std::thread> threads;
  threads.reserve(addresses_.size());
  for (std::size_t i = 0; i < addresses_.size(); ++i) {
    threads.emplace_back(
        [this, i, &batch, &samples, seed] { worker(i, batch, samples, seed); });
  }
  for (std::thread& t : threads) t.join();

  if (batch.resolved != chunks || batch.failed_chunks != 0) {
    const std::size_t unserved =
        chunks - (batch.resolved - batch.failed_chunks);
    throw ProtocolError("daemon set: " + std::to_string(unserved) + " of " +
                        std::to_string(chunks) +
                        " chunks unserved — every replica is gone or the "
                        "attempt budget is exhausted");
  }

  std::vector<int> labels;
  labels.reserve(samples.size());
  for (std::size_t c = 0; c < chunks; ++c) {
    labels.insert(labels.end(), batch.results[c].begin(),
                  batch.results[c].end());
  }
  return labels;
}

void DaemonSet::worker(std::size_t address_index, Batch& batch,
                       const std::vector<std::vector<double>>& samples,
                       std::uint64_t seed) {
  std::unique_ptr<net::SocketEndpoint> channel;
  Rng ot_rng;  // outlives ot, which keeps a reference to it
  std::unique_ptr<core::OtBundle> ot;
  std::size_t consecutive_failures = 0;
  std::uint64_t connect_epoch = 0;

  const auto drop_connection = [&] {
    if (channel) channel->close();
    channel.reset();
    ot.reset();  // a new connection renegotiates its OT state
  };

  // Requeues \p c for any worker (the failover hand-off) and wakes the
  // fleet. Chunks past their attempt budget are declared dead instead.
  const auto requeue = [&](std::size_t c) {
    bool give_up = false;
    {
      std::lock_guard<std::mutex> lock(batch.mu);
      if (batch.attempts[c] >= batch.attempt_cap) {
        batch.failed_chunks++;
        batch.resolved++;
        give_up = true;
      } else {
        batch.pending.push_back(c);
      }
    }
    if (!give_up) stats_.chunk_retries.fetch_add(1);
    batch.cv.notify_all();
  };

  for (;;) {
    std::size_t c;
    std::size_t attempt;
    {
      std::unique_lock<std::mutex> lock(batch.mu);
      batch.cv.wait(lock, [&] {
        return batch.resolved == batch.chunk_count || !batch.pending.empty();
      });
      if (batch.resolved == batch.chunk_count) break;
      c = batch.pending.front();
      batch.pending.pop_front();
      attempt = batch.attempts[c]++;
    }

    try {
      if (!channel) {
        channel = net::socket_connect(
            addresses_[address_index], options_.socket,
            net::Deadline::after(options_.connect_timeout));
        // Persistent per-connection OT state, like any keep-alive client of
        // ppdsd. Connection-local randomness: labels are randomness-
        // invariant, so reconnects cannot change results.
        ot_rng.reseed(splitmix64(splitmix64(seed, 0x5e7 + address_index),
                                 connect_epoch++));
        ot = std::make_unique<core::OtBundle>(scenario_.config, ot_rng);
      }
      const std::size_t begin = c * options_.chunk_size;
      const std::size_t end =
          std::min(begin + options_.chunk_size, samples.size());
      const std::vector<std::vector<double>> chunk(
          samples.begin() + static_cast<std::ptrdiff_t>(begin),
          samples.begin() + static_cast<std::ptrdiff_t>(end));
      // Fresh per-attempt client randomness (retry_attempt_seed): a
      // retried chunk re-randomizes everything — resuming half-consumed
      // OT randomness on a new replica would be a privacy hole.
      Rng rng(retry_attempt_seed(splitmix64(seed, 2 * c + 1), attempt));
      channel->set_recv_deadline(
          net::Deadline::after(options_.recv_timeout));
      std::vector<int> labels =
          client_classify(*channel, scenario_, chunk, rng, ot.get());
      {
        std::lock_guard<std::mutex> lock(batch.mu);
        batch.results[c] = std::move(labels);
        batch.done[c] = true;
        batch.resolved++;
      }
      stats_.chunks_ok.fetch_add(1);
      consecutive_failures = 0;
      batch.cv.notify_all();
    } catch (const net::BusyError& e) {
      // Structured shed. The frame is terminal (the daemon closed us), so
      // the connection is gone either way; what the reason tells us is
      // whether this replica is worth another knock.
      stats_.busy_sheds.fetch_add(1);
      drop_connection();
      requeue(c);
      if (e.retry_after_ms() == 0) {
        // busy(draining): this replica is going away for good — lost.
        stats_.replicas_lost.fetch_add(1);
        break;
      }
      ++consecutive_failures;
      if (consecutive_failures >=
          std::max<std::size_t>(1, options_.retry.max_attempts)) {
        stats_.replicas_lost.fetch_add(1);
        break;
      }
      // Honor the daemon's hint, floored by the deterministic schedule.
      const auto delay =
          std::max(std::chrono::milliseconds{e.retry_after_ms()},
                   backoff(options_.retry, seed, c, attempt + 1));
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
    } catch (const ProtocolError&) {
      // Disconnect, timeout, refused connect, corrupted frame: requeue the
      // chunk (an idle replica may take it immediately) and back off
      // before reconnecting. The protocol layer has already wiped any OT
      // pads on the unwind path.
      stats_.attempts_failed.fetch_add(1);
      drop_connection();
      requeue(c);
      ++consecutive_failures;
      if (consecutive_failures >=
          std::max<std::size_t>(1, options_.retry.max_attempts)) {
        stats_.replicas_lost.fetch_add(1);
        break;
      }
      const auto delay = backoff(options_.retry, seed, c, attempt + 1);
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
    }
  }
  // Exit (replica lost or batch finished): a clean goodbye keeps the
  // daemon's books exact when the connection is still up.
  if (channel) {
    try {
      client_goodbye(*channel);
    } catch (const std::exception&) {
      // Best effort; the daemon counts the EOF as a clean close anyway.
    }
  }
}

}  // namespace ppds::server
