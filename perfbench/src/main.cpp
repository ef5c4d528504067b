/// ppds benchmark program: runs one workload for a fixed time and prints its
/// end-to-end metrics (untraced pass) or per-layer metrics (traced pass) as
/// one JSON line. perfbench/run.py builds this binary and wraps it; see
/// perfbench/README.md for the workloads and metric definitions.
///
/// Usage:
///   ppds_perfbench --workload <name> --seed <n> --seconds <s>
///                  [--trace 0|1] [--setup-only] [--trace-file <path>]

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"
#include "ppds/crypto/group.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/field/m61xn.hpp"
#include "ppds/net/framing.hpp"
#include "ppds/ompe/ompe.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ppds_perfbench: %s\nusage: ppds_perfbench --workload <name> "
               "--seed <n> --seconds <s> [--trace 0|1] [--setup-only] "
               "[--trace-file <path>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-file") {
      a.trace_file = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// What one pass of the closed loop produced.
struct Phase {
  std::vector<double> latencies_ms;  ///< successful sessions only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::vector<Span> spans;
};

/// Runs every connection's closed loop until \p seconds elapse (or, when
/// \p max_sessions > 0, until each connection ran that many sessions).
/// Traced passes add the session root span and the replayed layer spans.
Phase run_phase(Workload& wl, double seconds, bool traced,
                std::uint64_t max_sessions, std::atomic<std::uint64_t>& ids) {
  const std::size_t n = wl.connections();
  struct PerConn {
    std::vector<double> ms;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Tracer tracer;
    std::string error;
  };
  std::vector<PerConn> per(n);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      PerConn& me = per[c];
      std::vector<std::uint8_t> scratch;
      while ((max_sessions == 0 && Clock::now() < deadline) ||
             (max_sessions > 0 && me.attempted < max_sessions)) {
        const std::uint64_t sid = ids.fetch_add(1) + 1;
        const NetTotals before = traced ? wl.net(c) : NetTotals{};
        const Clock::time_point t0 = Clock::now();
        bool ok = false;
        bool dead = false;
        try {
          ok = wl.session(c);
        } catch (const std::exception& e) {
          dead = true;
          if (me.error.empty()) me.error = e.what();
        }
        const Clock::time_point t1 = Clock::now();
        ++me.attempted;
        if (ok) {
          me.ms.push_back(ms_between(t0, t1));
        } else {
          ++me.failed;
        }
        if (dead) break;
        if (!traced) continue;
        me.tracer.record(sid, "core.session", "", t0, t1);
        wl.replay(c, sid, me.tracer);
        // Frame checksums of the client's frames: stamped on send and
        // validated on receipt, each a full pass over the payload.
        const std::size_t bytes = wl.net(c).client_bytes - before.client_bytes;
        if (scratch.size() < bytes) scratch.resize(bytes);
        const std::span<const std::uint8_t> payload(scratch.data(), bytes);
        me.tracer.child(sid, "net.checksum", [&] {
          keep(ppds::net::frame_checksum({}, payload));
          keep(ppds::net::frame_checksum({}, payload));
        });
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase out;
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (std::size_t c = 0; c < n; ++c) {
    PerConn& p = per[c];
    if (!p.error.empty()) {
      std::fprintf(stderr, "connection %zu failed: %s\n", c, p.error.c_str());
    }
    out.latencies_ms.insert(out.latencies_ms.end(), p.ms.begin(), p.ms.end());
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.spans.insert(out.spans.end(), p.tracer.spans().begin(),
                     p.tracer.spans().end());
  }
  std::sort(out.latencies_ms.begin(), out.latencies_ms.end());
  return out;
}

/// Nearest-rank percentile of sorted values (0 when empty).
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// Samples strictly beyond the nearest-rank percentile \p p.
std::size_t beyond(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::min(rank, n);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Process-wide counters the traced pass differences.
struct Counters {
  ppds::ompe::StageCounters ompe;
  ppds::crypto::ExpCounters exps;
  std::uint64_t sync_expansions = 0;
  NetTotals net;

  static Counters read(Workload& wl) {
    Counters c;
    c.ompe = ppds::ompe::stage_counters();
    c.exps = ppds::crypto::exp_counters();
    c.sync_expansions = wl.sync_expansions();
    for (std::size_t i = 0; i < wl.connections(); ++i) {
      const NetTotals t = wl.net(i);
      c.net.client_bytes += t.client_bytes;
      c.net.client_frames += t.client_frames;
      c.net.server_bytes += t.server_bytes;
    }
    return c;
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

template <typename Map, typename Fn>
std::string json_object(const Map& map, Fn&& value) {
  std::string out = "{";
  for (const auto& [key, v] : map) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + value(v);
  }
  return out + "}";
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 Clock::time_point origin) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"session\": " << s.session << ", \"name\": "
        << json_string(s.name) << ", \"parent\": " << json_string(s.parent)
        << ", \"start_us\": " << json_number(ms_between(origin, s.start) * 1e3)
        << ", \"end_us\": " << json_number(ms_between(origin, s.end) * 1e3)
        << "}\n";
  }
}

/// Per-layer metrics of the traced pass: span means per session, counter
/// deltas per session, and the session root's self time once the layers
/// on its blocking path are taken out.
std::map<std::string, double> layer_metrics(
    const Phase& traced, const Phase& untraced, const Counters& before,
    const Counters& after, const ServerReport& server,
    std::map<std::string, double>& self_ms) {
  std::map<std::string, double> m;
  const double sessions =
      static_cast<double>(std::max<std::uint64_t>(1, traced.attempted));
  std::map<std::string, double> span_sum;
  for (const Span& s : traced.spans) span_sum[s.name] += ms_between(s.start, s.end);
  const auto span_mean = [&](const char* name) {
    const auto it = span_sum.find(name);
    return it == span_sum.end() ? 0.0 : it->second / sessions;
  };
  const auto per_session = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / sessions;
  };
  const auto& o0 = before.ompe;
  const auto& o1 = after.ompe;

  m["server.ready_peak"] = static_cast<double>(server.ready_peak);
  m["server.parked_peak"] = static_cast<double>(server.parked_peak);
  m["server.sessions_failed"] = static_cast<double>(server.sessions_failed);

  m["core.session_ms"] = span_mean("core.session");
  m["core.digest_ms"] = span_mean("core.digest");
  m["core.transform_ms"] = span_mean("core.transform");

  m["ompe.cover_ms"] = per_session(o0.cover_eval_ns, o1.cover_eval_ns) / 1e6;
  m["ompe.mask_ms"] = per_session(o0.mask_eval_ns, o1.mask_eval_ns) / 1e6;
  // Both roles run in this process and both feed ot_ns; each role's OT wall
  // time includes waiting for the other, so the blocking path sees one
  // role's worth: the mean of the two.
  m["ompe.ot_ms"] = per_session(o0.ot_ns, o1.ot_ns) / 2e6;
  m["ompe.interp_ms"] = per_session(o0.interp_ns, o1.interp_ns) / 1e6;
  m["ompe.cover_points"] =
      per_session(o0.cover_eval_points, o1.cover_eval_points);
  m["ompe.mask_points"] = per_session(o0.mask_eval_points, o1.mask_eval_points);
  m["ompe.interp_points"] = per_session(o0.interp_points, o1.interp_points);
  m["ompe.ot_elements"] = per_session(o0.ot_elements, o1.ot_elements);

  m["crypto.exp_full_per_session"] =
      per_session(before.exps.full, after.exps.full);
  m["crypto.exp_fixed_base_per_session"] =
      per_session(before.exps.fixed_base, after.exps.fixed_base);
  m["crypto.sync_expansions_per_1k"] =
      1000.0 * per_session(before.sync_expansions, after.sync_expansions);
  const ppds::crypto::OtAbortAudit& audit = ppds::crypto::ot_abort_audit();
  m["crypto.ot_aborts"] = static_cast<double>(audit.aborts.load());
  m["crypto.ot_wiped"] = static_cast<double>(audit.wiped.load());

  m["net.client_sent_bytes_per_session"] =
      per_session(before.net.client_bytes, after.net.client_bytes);
  m["net.client_frames_per_session"] =
      per_session(before.net.client_frames, after.net.client_frames);
  m["net.server_sent_bytes_per_session"] =
      per_session(before.net.server_bytes, after.net.server_bytes);
  m["net.checksum_ms"] = span_mean("net.checksum");

  // Layers on the session's blocking path. The replayed spans ran beside
  // the session, not inside it, so the root's self time is its duration
  // minus these layer times rather than minus interval coverage.
  self_ms = {
      {"core.digest", m["core.digest_ms"]},
      {"core.transform", m["core.transform_ms"]},
      {"net.checksum", m["net.checksum_ms"]},
      {"ompe.cover", m["ompe.cover_ms"]},
      {"ompe.mask", m["ompe.mask_ms"]},
      {"ompe.ot", m["ompe.ot_ms"]},
      {"ompe.interp", m["ompe.interp_ms"]},
  };
  double attributed = 0.0;
  for (const auto& [name, ms] : self_ms) attributed += ms;
  m["trace.unattributed_ms"] = m["core.session_ms"] - attributed;
  self_ms["core.session (unattributed)"] = m["trace.unattributed_ms"];

  const double base_p50 = percentile(untraced.latencies_ms, 0.5);
  m["trace.overhead_share"] =
      base_p50 > 0.0 ? percentile(traced.latencies_ms, 0.5) / base_p50 - 1.0
                     : 0.0;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  const Args args = parse_args(argc, argv);
  try {
    std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed);
    std::atomic<std::uint64_t> ids{0};
    // Each connection's cold first session (silent seed agreement, first
    // pad staging) is part of set-up, not of the timed window.
    const Phase cold = run_phase(*wl, 0.0, false, 1, ids);
    const double setup_s =
        std::chrono::duration<double>(Clock::now() - origin).count();
    if (args.setup_only) {
      const ServerReport server = wl->finish();
      const bool ok = cold.failed == 0 && server.books_balance;
      std::printf("{\"setup_s\": %s, \"correct\": %s}\n",
                  json_number(setup_s).c_str(), ok ? "true" : "false");
      return ok ? 0 : 1;
    }

    // Traced runs spend the first half of the window untraced (the overhead
    // baseline) and the second half traced.
    Phase base;
    Counters before;
    if (args.trace) {
      base = run_phase(*wl, args.seconds / 2, false, 0, ids);
      before = Counters::read(*wl);
    }
    const Phase measured = run_phase(
        *wl, args.trace ? args.seconds / 2 : args.seconds, args.trace, 0, ids);
    const Counters after = args.trace ? Counters::read(*wl) : Counters{};
    const ServerReport server = wl->finish();
    const std::uint64_t attempted =
        cold.attempted + base.attempted + measured.attempted;
    const std::uint64_t failed = cold.failed + base.failed + measured.failed;

    std::map<std::string, double> metrics;
    std::map<std::string, double> self_ms;
    if (args.trace) {
      metrics = layer_metrics(measured, base, before, after, server, self_ms);
      if (!args.trace_file.empty()) {
        write_spans(args.trace_file, measured.spans, origin);
      }
    }
    const ppds::crypto::OtAbortAudit& audit = ppds::crypto::ot_abort_audit();
    const bool audit_ok = audit.aborts.load() == audit.wiped.load();
    const bool correct = failed == 0 && server.sessions_failed == 0 &&
                         audit_ok && server.books_balance;

    const double tail_p = wl->tail_percentile();
    const std::size_t n = measured.latencies_ms.size();
    if (!args.trace) {
      metrics["setup_s"] = setup_s;
      metrics["session_p50_ms"] = percentile(measured.latencies_ms, 0.5);
      metrics["session_tail_ms"] = percentile(measured.latencies_ms, tail_p);
      metrics["sessions_per_s"] =
          static_cast<double>(n) / std::max(measured.wall_s, 1e-9);
      metrics["ok_share"] =
          measured.attempted == 0
              ? 0.0
              : static_cast<double>(measured.attempted - measured.failed) /
                    static_cast<double>(measured.attempted);
      metrics["peak_rss_mb"] = peak_rss_mb();
    }

    std::map<std::string, std::string> context = wl->describe();
    context["workload"] = args.workload;
    context["pass"] = args.trace ? "traced" : "untraced";
    context["nproc"] = std::to_string(std::thread::hardware_concurrency());
    context["simd_engine"] = ppds::field::simd_caps().active;
    context["timed_samples"] = std::to_string(n);
    context["timed_window_s"] = json_number(measured.wall_s);
    context["tail_percentile"] = json_number(100.0 * tail_p);
    context["samples_beyond_tail"] = std::to_string(beyond(n, tail_p));
    context["cold_sessions"] = std::to_string(cold.attempted);
    context["cold_sessions_s"] = json_number(cold.wall_s);
    context["books_balance"] = server.books_balance ? "true" : "false";
    context["ot_aborts_equal_wipes"] = audit_ok ? "true" : "false";
    if (args.trace) {
      context["ompe.ot_ms"] =
          "mean of both roles' OT wall time per session, peer wait included";
      context["trace_sessions"] = std::to_string(measured.attempted);
    }
    std::printf("{\"context\": %s}\n",
                json_object(context, json_string).c_str());
    if (args.trace) {
      std::vector<std::pair<std::string, double>> ranked(self_ms.begin(),
                                                         self_ms.end());
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) { return a.second > b.second; });
      std::string line = "{\"self_ms\": [";
      for (std::size_t i = 0; i < ranked.size(); ++i) {
        if (i > 0) line += ", ";
        line += "[" + json_string(ranked[i].first) + ", " +
                json_number(ranked[i].second) + "]";
      }
      std::printf("%s]}\n", line.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                json_object(metrics, json_number).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppds_perfbench: %s\n", e.what());
    return 1;
  }
}
