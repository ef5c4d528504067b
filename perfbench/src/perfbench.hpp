#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

/// \file perfbench.hpp
/// Shared types of the ppds benchmark program: the workload interface the
/// closed loop in main.cpp runs against, and the in-memory span recorder of the
/// traced pass.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Keeps the result of a re-timed call observable so it is not elided.
inline void keep(std::uint64_t value) {
  static std::atomic<std::uint64_t> total{0};
  total.fetch_add(value, std::memory_order_relaxed);
}

/// One timed interval of the traced pass. Spans of one session share
/// `session`; `parent` names the enclosing span ("" for the session root).
struct Span {
  std::uint64_t session = 0;
  std::string name;
  std::string parent;
  Clock::time_point start;
  Clock::time_point end;
};

/// Collects spans in memory; one instance per connection thread, merged
/// and written out when the run ends.
class Tracer {
 public:
  void record(std::uint64_t session, std::string name, std::string parent,
              Clock::time_point start, Clock::time_point end) {
    spans_.push_back(
        Span{session, std::move(name), std::move(parent), start, end});
  }

  /// Times \p fn as a child span of the session root.
  template <typename F>
  void child(std::uint64_t session, const char* name, F&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    record(session, name, "core.session", start, Clock::now());
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Cumulative traffic one connection's CLIENT endpoint sent (and, where the
/// server endpoint lives in the benchmark, what the server sent).
struct NetTotals {
  std::uint64_t client_bytes = 0;
  std::uint64_t client_frames = 0;
  std::uint64_t server_bytes = 0;
};

/// Daemon-side figures read once the workload is torn down.
struct ServerReport {
  bool books_balance = true;
  std::uint64_t ready_peak = 0;
  std::uint64_t parked_peak = 0;
  std::uint64_t sessions_failed = 0;
};

/// A workload: a set of closed-loop connections, each running one session
/// at a time. The constructor performs the whole set-up except the cold
/// first session of each connection, which main.cpp runs (concurrently)
/// and bills to set-up as well.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t connections() const = 0;

  /// Runs one session on connection \p c (only ever called from that
  /// connection's thread). Returns false when the session's output
  /// disagrees with the plaintext reference; throws when it fails.
  virtual bool session(std::size_t c) = 0;

  /// Traced pass only: re-times, beside the session, the layer calls the
  /// session made internally (digest, client transform) as child spans.
  virtual void replay(std::size_t c, std::uint64_t session_id,
                      Tracer& tracer) = 0;

  /// Traffic totals of connection \p c (its thread, or after a join).
  virtual NetTotals net(std::size_t c) const = 0;

  /// Silent-OT inline expansions summed over the client bundles.
  virtual std::uint64_t sync_expansions() const = 0;

  /// Ends every connection cleanly and stops the server side.
  virtual ServerReport finish() = 0;

  /// Percentile (in (0,1)) reported as session_tail_ms.
  virtual double tail_percentile() const = 0;

  /// Facts about the workload for the context line (read after the run).
  virtual std::map<std::string, std::string> describe() const = 0;
};

/// Builds a workload by name; throws std::invalid_argument if unknown.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
