/// Micro-benchmarks of the cryptographic substrate (google-benchmark):
/// SHA-256 throughput, PRG stream, DH-group exponentiation per MODP size,
/// Naor-Pinkas 1-out-of-2 and cold k-out-of-n oblivious transfers, and
/// GGM/PPRF tree expansion.

#include <benchmark/benchmark.h>

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

/// Joint product prod_i bases[i]^exps[i] the "before" way: one full
/// exponentiation per base. Pairs with BM_MultiExp below at the same batch
/// sizes; the counter deltas show the exchange rate (n full exps -> one
/// multi-exp batch).
void BM_MultiExpNaive(benchmark::State& state) {
  const crypto::DhGroup group(crypto::GroupId::kModp1024);
  Rng rng(3);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<mpz_class> bases(n), exps(n);
  for (std::size_t i = 0; i < n; ++i) {
    bases[i] = group.random_element(rng);
    exps[i] = group.random_exponent(rng);
  }
  crypto::reset_exp_counters();
  for (auto _ : state) {
    mpz_class acc = 1;
    for (std::size_t i = 0; i < n; ++i) {
      acc = group.mul(acc, group.pow(bases[i], exps[i]));
    }
    benchmark::DoNotOptimize(acc);
  }
  const crypto::ExpCounters c = crypto::exp_counters();
  state.counters["full_exps_per_batch"] = benchmark::Counter(
      static_cast<double>(c.full) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MultiExpNaive)->Arg(4)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

/// Same joint product through DhGroup::multi_exp — Straus interleaving
/// below kPippengerThreshold bases, Pippenger buckets above. The counters
/// confirm zero full exponentiations: the whole batch rides one shared
/// squaring chain.
void BM_MultiExp(benchmark::State& state) {
  const crypto::DhGroup group(crypto::GroupId::kModp1024);
  Rng rng(3);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<mpz_class> bases(n), exps(n);
  for (std::size_t i = 0; i < n; ++i) {
    bases[i] = group.random_element(rng);
    exps[i] = group.random_exponent(rng);
  }
  crypto::reset_exp_counters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.multi_exp(bases, exps));
  }
  const crypto::ExpCounters c = crypto::exp_counters();
  const double iters = static_cast<double>(state.iterations());
  state.counters["full_exps_per_batch"] =
      benchmark::Counter(static_cast<double>(c.full) / iters);
  state.counters["multi_exp_batches"] =
      benchmark::Counter(static_cast<double>(c.multi_exp_batches) / iters);
  state.counters["bases_folded"] =
      benchmark::Counter(static_cast<double>(c.multi_exp_bases) / iters);
  state.SetLabel(n >= crypto::DhGroup::kPippengerThreshold ? "pippenger"
                                                           : "straus");
}
BENCHMARK(BM_MultiExp)->Arg(4)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_Ot1of2(benchmark::State& state) {
  const crypto::DhGroup group(crypto::GroupId::kModp1024);
  const Bytes m0(32, 1), m1(32, 2);
  for (auto _ : state) {
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(1);
          crypto::NaorPinkasSender s(group, rng);
          s.send_1of2(ch, m0, m1);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(2);
          crypto::NaorPinkasReceiver r(group, rng);
          return r.receive_1of2(ch, true, 32);
        });
    benchmark::DoNotOptimize(outcome.b);
  }
}
BENCHMARK(BM_Ot1of2)->Unit(benchmark::kMillisecond);

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
          crypto::BatchedOtSender s(group, rng);
          s.send(ch, msgs, k);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(2);
          crypto::BatchedOtReceiver r(group, rng);
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
  const Bytes m0(32, 1), m1(32, 2);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        crypto::NaorPinkasSender np(group, rng);
        return crypto::precompute_ot_sender(ch, np, 512, 32, rng);
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        crypto::NaorPinkasReceiver np(group, rng);
        return crypto::precompute_ot_receiver(ch, np, 512, 32, rng);
      });
  std::size_t slot = 0;
  for (auto _ : state) {
    if (slot >= outcome.a.size()) {
      state.SkipWithError("precomputed slots exhausted");
      break;
    }
    auto online = net::run_two_party(
        [&](net::Endpoint& ch) {
          crypto::precomputed_send_1of2(ch, outcome.a[slot], m0, m1);
          return 0;
        },
        [&](net::Endpoint& ch) {
          return crypto::precomputed_receive_1of2(ch, outcome.b[slot], true);
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
