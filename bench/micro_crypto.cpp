/// Micro-benchmarks of the cryptographic substrate (google-benchmark):
/// SHA-256 throughput, PRG stream, DH-group exponentiation per MODP size,
/// cold k-out-of-n oblivious transfers, the precomputed online phase, and
/// GGM/PPRF tree expansion.

#include <benchmark/benchmark.h>

#include <array>

#include "ppds/crypto/group.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/crypto/pprf.hpp"
#include "ppds/crypto/prg.hpp"
#include "ppds/crypto/sha256.hpp"
#include "ppds/crypto/silent_ot.hpp"
#include "ppds/net/party.hpp"

namespace {

using namespace ppds;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_PrgStream(benchmark::State& state) {
  crypto::Digest seed{};
  seed.fill(7);
  crypto::Prg prg(seed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prg.next(static_cast<std::size_t>(state.range(0))));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PrgStream)->Arg(256)->Arg(4096);

void BM_GroupExp(benchmark::State& state) {
  const crypto::DhGroup group(
      static_cast<crypto::GroupId>(state.range(0)));
  Rng rng(1);
  const mpz_class e = group.random_exponent(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.pow_g(e));
  }
}
BENCHMARK(BM_GroupExp)
    ->Arg(0)   // MODP-1024
    ->Arg(1)   // MODP-1536
    ->Arg(2);  // MODP-2048

void BM_OtKofN(benchmark::State& state) {
  // A cold k-of-n transfer on fresh private engines: the silent OT seed
  // agreement plus k direct 1-of-n slots.
  const crypto::DhGroup group(crypto::GroupId::kModp1024);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  std::vector<Bytes> msgs(n, Bytes(8, 3));
  std::vector<std::size_t> want(k);
  for (std::size_t i = 0; i < k; ++i) want[i] = i;
  crypto::reset_exp_counters();
  for (auto _ : state) {
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(1);
          crypto::SilentPadSender s(group, rng);
          s.send(ch, msgs, k);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(2);
          crypto::SilentPadReceiver r(group, rng);
          return r.receive(ch, want, n, 8);
        });
    benchmark::DoNotOptimize(outcome.b);
  }
  // Per-transfer exponentiation bill: all of it is the seed agreement, so a
  // warm engine (fig9's secure_throughput silent_warm row) pays none.
  const crypto::ExpCounters c = crypto::exp_counters();
  const double iters = static_cast<double>(state.iterations());
  state.counters["full_exps_per_transfer"] =
      benchmark::Counter(static_cast<double>(c.full) / iters);
  state.SetLabel(std::to_string(k) + "-of-" + std::to_string(n));
}
BENCHMARK(BM_OtKofN)
    ->Args({10, 5})
    ->Args({27, 9})
    ->Unit(benchmark::kMillisecond);

void BM_OtPrecomputedOnline(benchmark::State& state) {
  // Online phase only: the argument for OT precomputation.
  const crypto::DhGroup group(crypto::GroupId::kModp1024);
  const std::array<Bytes, 2> messages{Bytes(32, 1), Bytes(32, 2)};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        return crypto::precompute_ot_sender(ch, group, 512, 32, rng);
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        return crypto::precompute_ot_receiver(ch, group, 512, 32, rng);
      });
  std::size_t slot = 0;
  for (auto _ : state) {
    if (slot >= outcome.a.size()) {
      state.SkipWithError("precomputed slots exhausted");
      break;
    }
    auto online = net::run_two_party(
        [&](net::Endpoint& ch) {
          crypto::precomputed_send_1ofn(ch, outcome.a[slot], messages);
          return 0;
        },
        [&](net::Endpoint& ch) {
          return crypto::precomputed_receive_1ofn(ch, outcome.b[slot], 1, 32);
        });
    benchmark::DoNotOptimize(online.b);
    ++slot;
  }
}
// Fixed iteration count: each online transfer consumes one precomputed slot.
BENCHMARK(BM_OtPrecomputedOnline)->Iterations(400)->Unit(benchmark::kMicrosecond);

/// Frontier walk over a GGM tree: the raw keystream-generation rate behind
/// every silent-OT expansion (one 32-byte leaf = kSilentRowsPerLeaf rows of
/// one column's keystream).
void BM_PprfExpand(benchmark::State& state) {
  crypto::Digest root{};
  root.fill(0x5a);
  const crypto::GgmTree tree(root, crypto::kSilentTreeDepth);
  const auto leaves = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t from = 0;
  for (auto _ : state) {
    if (from + leaves > tree.leaves()) from = 0;
    crypto::Digest acc{};
    tree.expand_range(from, from + leaves,
                      [&](std::uint64_t, const crypto::Digest& leaf) {
                        acc[0] ^= leaf[0];
                      });
    benchmark::DoNotOptimize(acc);
    from += leaves;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(leaves) * 32);
}
BENCHMARK(BM_PprfExpand)->Arg(64)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
