#include "ppds/ompe/ompe.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <utility>
#include <vector>

#include "ppds/common/ct.hpp"
#include "ppds/common/error.hpp"
#include "ppds/common/thread_pool.hpp"
#include "ppds/field/encoding.hpp"
#include "ppds/field/m61.hpp"
#include "ppds/math/interpolate.hpp"
#include "ppds/math/poly.hpp"
#include "ppds/net/framing.hpp"

namespace ppds::ompe {

namespace {

using field::M61;

// Version 2: every evaluation is degree 1, so the header no longer carries
// a degree field and m = q + 1.
constexpr std::uint8_t kMsgVersion = 2;
constexpr std::size_t kHeaderBytes = 1 + 1 + 8 + 8 + 8;

// ---------------------------------------------------------------------------
// Stage counters (mirrors crypto::exp_counters): process-wide atomics fed by
// scoped timers, so benches attribute protocol cost without a profiler.

struct StageAtomics {
  std::atomic<std::uint64_t> mask_eval_ns{0};
  std::atomic<std::uint64_t> mask_eval_points{0};
  std::atomic<std::uint64_t> cover_eval_ns{0};
  std::atomic<std::uint64_t> cover_eval_points{0};
  std::atomic<std::uint64_t> ot_ns{0};
  std::atomic<std::uint64_t> ot_elements{0};
  std::atomic<std::uint64_t> interp_ns{0};
  std::atomic<std::uint64_t> interp_points{0};
};

StageAtomics& stage_atomics() {
  static StageAtomics counters;
  return counters;
}

/// Adds the scope's wall time to one stage counter on destruction.
class StageTimer {
 public:
  explicit StageTimer(std::atomic<std::uint64_t>& target)
      : target_(&target), start_(std::chrono::steady_clock::now()) {}

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  ~StageTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    target_->fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()),
        std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>* target_;
  std::chrono::steady_clock::time_point start_;
};

void count_points(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Parallel masked-point evaluation. One process-wide worker pool, shared by
// every OMPE call (sessions already running on a core::SessionPool submit
// here too; tasks are pure compute, so the two pools compose without
// deadlock). Determinism contract: per-point work depends only on the point
// index (and a per-call seed), NEVER on the chunking, so transcripts are
// bit-identical on every host (tests/ompe/ompe_parallel_test.cpp pins them).

ThreadPool& eval_pool() {
  static ThreadPool pool;
  return pool;
}

/// Task count for a sweep of \p points points costing \p per_point elements
/// each: one task per hardware thread. Small sweeps run inline: a pool
/// handoff costs more than the loop.
std::size_t plan_tasks(std::size_t points, std::size_t per_point) {
  const std::size_t budget = ThreadPool::default_concurrency();
  if (budget <= 1 || points <= 1) return 1;
  if (points * per_point < (std::size_t{1} << 14)) return 1;
  return std::min(budget, points);
}

/// Runs fn(begin, end) over a partition of [0, n) into \p tasks contiguous
/// chunks: tasks-1 on the pool, the first inline on the calling thread (so a
/// single-worker pool can never stall the caller). fn must only touch
/// per-point state and disjoint output slices.
template <typename F>
void for_each_chunk(std::size_t n, std::size_t tasks, const F& fn) {
  if (tasks <= 1 || n <= 1) {
    if (n != 0) fn(std::size_t{0}, n);
    return;
  }
  const std::size_t chunk = (n + tasks - 1) / tasks;
  std::vector<std::future<void>> futures;
  futures.reserve(tasks - 1);
  for (std::size_t begin = chunk; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    futures.push_back(eval_pool().submit([&fn, begin, end] { fn(begin, end); }));
  }
  fn(std::size_t{0}, std::min(chunk, n));
  for (std::future<void>& f : futures) f.get();
}

// ---------------------------------------------------------------------------
// Flat open-addressing membership set for nonzero 64-bit keys (0 marks an
// empty slot): replaces the std::set node-dedup whose per-node allocations
// dominated the hot loop. Capacity >= 2x the expected insert count, so the
// linear probe stays short.

class NodeSet {
 public:
  explicit NodeSet(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, 0);
    mask_ = cap - 1;
  }

  /// \p node must be nonzero. Returns false when already present.
  bool insert(std::uint64_t node) {
    std::size_t idx = static_cast<std::size_t>(splitmix64(node, 0)) & mask_;
    for (;;) {
      std::uint64_t& slot = slots_[idx];
      if (slot == 0) {
        slot = node;
        return true;
      }
      if (slot == node) return false;
      idx = (idx + 1) & mask_;
    }
  }

 private:
  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
};

// ---------------------------------------------------------------------------

M61 random_field_element(Rng& rng) {
  for (;;) {
    const std::uint64_t v = rng() >> 3;  // 61 bits
    if (v < M61::kP) return M61(v);
  }
}

M61 random_nonzero_field_element(Rng& rng) {
  for (;;) {
    const M61 v = random_field_element(rng);
    if (!v.is_zero()) return v;
  }
}

/// Evaluation nodes for the real backend: one node per jittered slot across
/// [-hi, -lo] U [lo, hi], keeping pairwise separation so the final Lagrange
/// step at degree q stays well-conditioned.
std::vector<double> real_nodes(Rng& rng, std::size_t count, double lo,
                               double hi) {
  const std::size_t half = (count + 1) / 2;
  std::vector<double> nodes;
  nodes.reserve(count);
  const double width = (hi - lo) / static_cast<double>(half);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t slot = i / 2;
    const double base = lo + static_cast<double>(slot) * width;
    const double v = base + rng.uniform(0.15, 0.85) * width;
    nodes.push_back(i % 2 == 0 ? v : -v);
  }
  rng.shuffle(nodes);
  return nodes;
}

std::vector<M61> field_nodes(Rng& rng, std::size_t count) {
  NodeSet seen(count);
  std::vector<M61> nodes;
  nodes.reserve(count);
  while (nodes.size() < count) {
    const M61 v = random_nonzero_field_element(rng);
    if (seen.insert(v.value())) nodes.push_back(v);
  }
  return nodes;
}

Bytes encode_value_real(double v) {
  Bytes out(8);
  store_le_f64(out.data(), v);
  return out;
}

Bytes encode_value_field(M61 v) {
  Bytes out(8);
  store_le64(out.data(), v.value());
  return out;
}

/// Coefficient bound of the receiver's cover polynomials (real backend).
/// The bound must dominate the |alpha| <= 1 constant term: the value a
/// cover evaluates to is alpha_i + sum c_j v^j, and with small coefficients
/// the distribution of wire values would visibly shift with alpha_i
/// (measured in tests/ompe/privacy_test.cpp). 32x leaves the residual
/// Kolmogorov-Smirnov distinguishability below noise at realistic sample
/// counts. The exact field backend needs none of this: its cover
/// coefficients are uniform field elements (information-theoretic).
constexpr double kCoverBound = 32.0;

/// Draws a fresh random degree-q cover polynomial implicitly and evaluates
/// it at \p v — the disguise tuples must be statistically indistinguishable
/// from genuine cover evaluations, and this avoids materializing throwaway
/// polynomials (the nonlinear scheme has hundreds of thousands of variates).
double random_cover_eval(Rng& rng, unsigned q, double v) {
  double acc = 0.0;
  for (unsigned j = 0; j < q; ++j) {
    acc = acc * v + rng.uniform_nonzero(-kCoverBound, kCoverBound);
  }
  return acc * v + rng.uniform(-1.0, 1.0);
}

struct RequestHeader {
  std::uint8_t version = kMsgVersion;
  std::uint8_t backend = 0;
  std::uint64_t arity = 0;
  std::uint64_t total_pairs = 0;  // M
  std::uint64_t keep_pairs = 0;   // m
};

void write_header(ByteWriter& w, const RequestHeader& h) {
  w.u8(h.version);
  w.u8(h.backend);
  w.u64(h.arity);
  w.u64(h.total_pairs);
  w.u64(h.keep_pairs);
}

RequestHeader read_header(ByteReader& r) {
  RequestHeader h;
  h.version = r.u8();
  if (h.version != kMsgVersion) throw ProtocolError("ompe: bad version");
  h.backend = r.u8();
  h.arity = r.u64();
  h.total_pairs = r.u64();
  h.keep_pairs = r.u64();
  return h;
}

}  // namespace

StageCounters stage_counters() {
  const StageAtomics& a = stage_atomics();
  StageCounters out;
  out.mask_eval_ns = a.mask_eval_ns.load(std::memory_order_relaxed);
  out.mask_eval_points = a.mask_eval_points.load(std::memory_order_relaxed);
  out.cover_eval_ns = a.cover_eval_ns.load(std::memory_order_relaxed);
  out.cover_eval_points = a.cover_eval_points.load(std::memory_order_relaxed);
  out.ot_ns = a.ot_ns.load(std::memory_order_relaxed);
  out.ot_elements = a.ot_elements.load(std::memory_order_relaxed);
  out.interp_ns = a.interp_ns.load(std::memory_order_relaxed);
  out.interp_points = a.interp_points.load(std::memory_order_relaxed);
  return out;
}

void reset_stage_counters() {
  StageAtomics& a = stage_atomics();
  a.mask_eval_ns.store(0, std::memory_order_relaxed);
  a.mask_eval_points.store(0, std::memory_order_relaxed);
  a.cover_eval_ns.store(0, std::memory_order_relaxed);
  a.cover_eval_points.store(0, std::memory_order_relaxed);
  a.ot_ns.store(0, std::memory_order_relaxed);
  a.ot_elements.store(0, std::memory_order_relaxed);
  a.interp_ns.store(0, std::memory_order_relaxed);
  a.interp_points.store(0, std::memory_order_relaxed);
}

void validate(const OmpeParams& params) {
  detail::require(params.q >= 1,
                  "ompe: q must be >= 1 (q = 0 makes every cover the "
                  "constant alpha)");
  detail::require(params.k >= 2,
                  "ompe: k must be >= 2 (k = 1 sends only genuine pairs)");
  detail::require(params.big_m() <= crypto::kMaxDirectArity,
                  "ompe: M = (q+1)k exceeds the direct OT arity bound");
}

void run_sender(net::Endpoint& channel, PPDS_SECRET std::span<const double> w,
                PPDS_SECRET double b, const OmpeParams& params,
                crypto::OtSender& ot, Rng& rng) {
  validate(params);
  const std::size_t arity = w.size();
  const std::size_t m = params.m();
  const std::size_t big_m = params.big_m();

  // Field encoding: each feature carries one input scale 2^f, so the
  // weights get 2^f and the constant 2^{2f}; the sum decodes at scale 2.
  PPDS_SECRET std::vector<M61> w_enc;
  // The encoded model weights mirror the caller's secret model.
  const ScopedWipe w_enc_guard(w_enc);
  PPDS_SECRET M61 b_enc;
  if (params.backend == Backend::kField) {
    const double w_scale = std::ldexp(1.0, static_cast<int>(kFracBits));
    const double b_scale =
        std::ldexp(1.0, 2 * static_cast<int>(kFracBits));
    w_enc.reserve(arity);
    for (double wi : w) {
      const double scaled = wi * w_scale;
      detail::require(std::abs(scaled) < 9.0e17,
                      "ompe: field encoding overflow; lower frac_bits");
      w_enc.push_back(
          M61::from_signed(static_cast<std::int64_t>(std::llround(scaled))));
    }
    const double scaled_b = b * b_scale;
    detail::require(std::abs(scaled_b) < 9.0e17,
                    "ompe: field encoding overflow; lower frac_bits");
    b_enc = M61::from_signed(static_cast<std::int64_t>(std::llround(scaled_b)));
  }

  channel.set_stage(net::Stage::kOmpeRequest);
  const Bytes request = channel.recv();
  ByteReader r(request);
  const RequestHeader header = read_header(r);
  if (header.backend != static_cast<std::uint8_t>(params.backend) ||
      header.arity != arity || header.total_pairs != big_m ||
      header.keep_pairs != m) {
    throw ProtocolError("ompe: request does not match agreed parameters");
  }
  // Fixed-stride payload: (node, z_1 .. z_arity) x M, 8 bytes each, decoded
  // in place (a per-element cursor walk over the tens-of-megabytes nonlinear
  // request would dominate the sweep).
  const std::size_t stride = (arity + 1) * 8;
  const std::span<const std::uint8_t> body = r.view(big_m * stride);
  r.expect_end();

  PPDS_SECRET std::vector<Bytes> values(big_m);
  // Only m of the M evaluations are transferred; the rest stay secret and
  // must not linger in freed heap pages — including when the OT round (or a
  // faulty channel) throws mid-transfer.
  const ScopedWipeEach values_guard(values);
  {
    const StageTimer timer(stage_atomics().mask_eval_ns);
    count_points(stage_atomics().mask_eval_points, big_m);

    // Node screening before any evaluation. Field nodes dedup on the REDUCED
    // residue (two wire encodings of one element must still count as a
    // repeat); real nodes dedup on the exact bit pattern.
    NodeSet seen(big_m);
    for (std::size_t i = 0; i < big_m; ++i) {
      const std::uint64_t raw = load_le64(body.subspan(i * stride, 8).data());
      std::uint64_t key = raw;
      if (params.backend == Backend::kReal) {
        const double v = load_le_f64(body.subspan(i * stride, 8).data());
        if (v == 0.0) throw ProtocolError("ompe: zero node");
      } else {
        const M61 v(raw);
        if (v.is_zero()) throw ProtocolError("ompe: zero node");
        key = v.value();
      }
      if (!seen.insert(key)) throw ProtocolError("ompe: repeated node");
    }

    // The M disguised points are swept in parallel across the process-wide
    // pool; per-point work depends only on the point index, so the values
    // are bit-identical for every chunking.
    const std::size_t tasks = plan_tasks(big_m, arity + 1);
    if (params.backend == Backend::kReal) {
      // Masking polynomial h, degree q, h(0) = 0. The coefficient bound
      // trades masking magnitude against the conditioning of the receiver's
      // degree-q interpolation (error scales with |h| at the nodes).
      PPDS_SECRET const auto h =
          math::random_poly<double>(rng, params.q, 0.0, 8.0);
      for_each_chunk(big_m, tasks, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::span<const std::uint8_t> pair = body.subspan(i * stride, stride);
          double acc = b;
          for (std::size_t j = 0; j < arity; ++j) {
            const double z = load_le_f64(pair.subspan(8 + 8 * j, 8).data());
            acc += w[j] * z;
          }
          values[i] = encode_value_real(h(load_le_f64(pair.data())) + acc);
        }
      });
    } else {
      // h over the field: uniform coefficients, zero constant term.
      PPDS_SECRET std::vector<M61> h_coeffs(params.q + 1);
      for (std::size_t i = 1; i < h_coeffs.size(); ++i) {
        h_coeffs[i] = random_field_element(rng);
      }
      const math::Poly<M61> h(std::move(h_coeffs));
      for_each_chunk(big_m, tasks, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::span<const std::uint8_t> pair = body.subspan(i * stride, stride);
          M61 acc = b_enc;
          for (std::size_t j = 0; j < arity; ++j) {
            const M61 z(load_le64(pair.subspan(8 + 8 * j, 8).data()));
            acc = acc + w_enc[j] * z;
          }
          values[i] = encode_value_field(h(M61(load_le64(pair.data()))) + acc);
        }
      });
    }
  }
  secure_wipe_object(b_enc);

  {
    const StageTimer timer(stage_atomics().ot_ns);
    count_points(stage_atomics().ot_elements, big_m);
    channel.set_stage(net::Stage::kOtTransfer);
    ot.send(channel,
            PPDS_DECLASSIFY(values,
                            "every offered value is A(v,z) = h(v) + P(z) with "
                            "h a fresh masking polynomial (h(0) = 0); the OT "
                            "reveals only the m receiver-chosen values, and "
                            "those are exactly the protocol output points"),
            m);
  }
}

double run_receiver(net::Endpoint& channel,
                    PPDS_SECRET std::span<const double> alpha,
                    const OmpeParams& params, crypto::OtReceiver& ot,
                    Rng& rng) {
  validate(params);
  const std::size_t arity = alpha.size();
  const std::size_t m = params.m();
  const std::size_t big_m = params.big_m();
  PPDS_SECRET const std::vector<std::size_t> keep = rng.sample_indices(big_m, m);
  PPDS_SECRET std::vector<bool> is_kept(big_m, false);
  for (std::size_t idx : keep) is_kept[idx] = true;

  // The request size is known exactly up front: header + M x (arity+1)
  // 8-byte slots. Reserve once and hand the point sweep a mutable body view
  // so worker tasks serialize their disjoint slices in place.
  const std::size_t stride = (arity + 1) * 8;
  ByteWriter w;
  w.reserve(kHeaderBytes + big_m * stride);
  RequestHeader header;
  header.backend = static_cast<std::uint8_t>(params.backend);
  header.arity = arity;
  header.total_pairs = big_m;
  header.keep_pairs = m;
  write_header(w, header);
  const std::span<std::uint8_t> body = w.append_raw(big_m * stride);
  const std::size_t cq = params.q;  // cover degree

  if (params.backend == Backend::kReal) {
    std::vector<double> kept_nodes;
    kept_nodes.reserve(m);
    {
      const StageTimer timer(stage_atomics().cover_eval_ns);
      count_points(stage_atomics().cover_eval_points, big_m);

      // Cover polynomials G = (g_1 .. g_r), g_i(0) = alpha_i, in one flat
      // coefficient array (variate j's coefficients at [j*(q+1), j*(q+1)+q],
      // constant first) — the nonlinear scheme has hundreds of thousands of
      // variates, so per-cover Poly allocations would dominate.
      PPDS_SECRET std::vector<double> covers((cq + 1) * arity);
      const ScopedWipe covers_guard(covers);  // g_i(0) = alpha_i is secret
      for (std::size_t j = 0; j < arity; ++j) {
        covers[j * (cq + 1)] = alpha[j];
        for (std::size_t l = 1; l <= cq; ++l) {
          covers[j * (cq + 1) + l] =
              rng.uniform_nonzero(-kCoverBound, kCoverBound);
        }
      }
      const std::vector<double> nodes =
          real_nodes(rng, big_m, kNodeLo, kNodeHi);
      // Disguise tuples are drawn from SplitMix64-derived per-point streams
      // (seeded once from the caller's rng), so the parallel sweep emits
      // bit-identical bytes for every chunking.
      const Secret<std::uint64_t> disguise_seed(rng());

      const std::size_t tasks = plan_tasks(big_m, arity + 1);
      for_each_chunk(big_m, tasks, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::span<std::uint8_t> slot = body.subspan(i * stride, stride);
          const double v = nodes[i];
          store_le_f64(slot.data(), v);
          if (is_kept[i]) {
            for (std::size_t j = 0; j < arity; ++j) {
              // Horner over the flat cover coefficients.
              const std::size_t base = j * (cq + 1);
              double acc = covers[base + cq];
              for (std::size_t l = cq; l-- > 0;) acc = acc * v + covers[base + l];
              store_le_f64(slot.subspan(8 + 8 * j, 8).data(), acc);
            }
          } else {
            // Disguise tuples drawn from the same distribution family as real
            // cover evaluations, so Alice cannot tell them apart statistically.
            Rng point_rng(splitmix64(disguise_seed.value(), i));
            for (std::size_t j = 0; j < arity; ++j) {
              store_le_f64(slot.subspan(8 + 8 * j, 8).data(),
                           random_cover_eval(point_rng, params.q, v));
            }
          }
        }
      });
      for (std::size_t i = 0; i < big_m; ++i) {
        if (is_kept[i]) kept_nodes.push_back(nodes[i]);
      }
    }
    channel.set_stage(net::Stage::kOmpeRequest);
    channel.send(PPDS_DECLASSIFY(
        w.take(),
        "OMPE request bundle: kept slots carry cover-polynomial "
                        "evaluations masked by q uniform random coefficients per "
                        "variate, disguised slots are fresh per-point randomness; "
                        "the OMPE hiding argument makes the bundle independent "
                        "of alpha and of the kept subset"));

    // The transferred evaluations and interpolation scratch reveal which
    // pairs were kept; wipe before the buffers return to the allocator —
    // also on the exception path (a faulty OT round must not leak them).
    std::vector<Bytes> replies;
    const ScopedWipeEach replies_guard(replies);
    {
      const StageTimer timer(stage_atomics().ot_ns);
      count_points(stage_atomics().ot_elements, m);
      channel.set_stage(net::Stage::kOtTransfer);
      replies = ot.receive(channel, keep, big_m, 8);
    }
    const StageTimer timer(stage_atomics().interp_ns);
    count_points(stage_atomics().interp_points, m);
    std::vector<long double> xs(m), ys(m);
    const ScopedWipe xs_guard(xs);
    const ScopedWipe ys_guard(ys);
    for (std::size_t j = 0; j < m; ++j) {
      ByteReader vr(replies[j]);
      xs[j] = static_cast<long double>(kept_nodes[j]);
      ys[j] = static_cast<long double>(vr.f64());
      vr.expect_end();
    }
    return static_cast<double>(math::lagrange_at_zero<long double>(xs, ys));
  }

  // Field backend.
  const FixedPoint fp{kFracBits};
  std::vector<M61> kept_nodes;
  kept_nodes.reserve(m);
  {
    const StageTimer timer(stage_atomics().cover_eval_ns);
    count_points(stage_atomics().cover_eval_points, big_m);

    // Covers as one flat coefficient array (see the real backend above);
    // coefficients are uniform field elements (information-theoretic).
    PPDS_SECRET std::vector<M61> covers((cq + 1) * arity);
    const ScopedWipe covers_guard(covers);
    for (std::size_t j = 0; j < arity; ++j) {
      covers[j * (cq + 1)] = field::encode(fp, alpha[j]);
      for (std::size_t l = 1; l <= cq; ++l) {
        covers[j * (cq + 1) + l] = random_field_element(rng);
      }
    }
    const std::vector<M61> nodes = field_nodes(rng, big_m);
    const Secret<std::uint64_t> disguise_seed(rng());

    const std::size_t tasks = plan_tasks(big_m, arity + 1);
    for_each_chunk(big_m, tasks, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const std::span<std::uint8_t> slot = body.subspan(i * stride, stride);
        const M61 v = nodes[i];
        store_le64(slot.data(), v.value());
        if (is_kept[i]) {
          for (std::size_t j = 0; j < arity; ++j) {
            const std::size_t base = j * (cq + 1);
            M61 acc = covers[base + cq];
            for (std::size_t l = cq; l-- > 0;) acc = acc * v + covers[base + l];
            store_le64(slot.subspan(8 + 8 * j, 8).data(), acc.value());
          }
        } else {
          Rng point_rng(splitmix64(disguise_seed.value(), i));
          for (std::size_t j = 0; j < arity; ++j) {
            store_le64(slot.subspan(8 + 8 * j, 8).data(),
                       random_field_element(point_rng).value());
          }
        }
      }
    });
    for (std::size_t i = 0; i < big_m; ++i) {
      if (is_kept[i]) kept_nodes.push_back(nodes[i]);
    }
  }
  channel.set_stage(net::Stage::kOmpeRequest);
  channel.send(PPDS_DECLASSIFY(
      w.take(),
      "OMPE request bundle: kept slots carry cover-polynomial "
                        "evaluations masked by q uniform random coefficients per "
                        "variate, disguised slots are fresh per-point randomness; "
                        "the OMPE hiding argument makes the bundle independent "
                        "of alpha and of the kept subset"));

  std::vector<Bytes> replies;
  const ScopedWipeEach replies_guard(replies);
  {
    const StageTimer timer(stage_atomics().ot_ns);
    count_points(stage_atomics().ot_elements, m);
    channel.set_stage(net::Stage::kOtTransfer);
    replies = ot.receive(channel, keep, big_m, 8);
  }
  const StageTimer timer(stage_atomics().interp_ns);
  count_points(stage_atomics().interp_points, m);
  std::vector<M61> xs(m), ys(m);
  const ScopedWipe xs_guard(xs);
  const ScopedWipe ys_guard(ys);
  for (std::size_t j = 0; j < m; ++j) {
    ByteReader vr(replies[j]);
    xs[j] = kept_nodes[j];
    ys[j] = M61(vr.u64());
    vr.expect_end();
  }
  const M61 b0 = math::lagrange_at_zero<M61>(xs, ys);
  return field::decode(fp, b0, 2);
}

}  // namespace ppds::ompe
