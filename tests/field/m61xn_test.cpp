#include "ppds/field/m61xn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ppds/common/rng.hpp"
#include "ppds/field/m61.hpp"

// The lane backend's contract is bit-identity with scalar M61: every lane op
// must return exactly the residues eight scalar ops would. These tests sweep
// the fold boundaries (0, 1, p-1, p, 2^61-1, 2^64-1) and 10k seeded random
// pairs per op through whichever kernel simd_caps() dispatched to; the CI
// forced-scalar leg reruns the same suite with PPDS_FORCE_SCALAR=1 so the
// portable path gets the identical sweep.

namespace ppds::field {
namespace {

M61 random_m61(Rng& rng) {
  for (;;) {
    const std::uint64_t v = rng() >> 3;
    if (v < M61::kP) return M61(v);
  }
}

// Raw 64-bit boundary words for the reducing entry points.
const std::array<std::uint64_t, 6> kRawBoundaries = {
    0u, 1u, M61::kP - 1, M61::kP, (std::uint64_t{1} << 61) - 1, ~std::uint64_t{0}};

M61x8 lanes_of(const std::vector<M61>& xs, std::size_t base) {
  std::array<M61, kM61Lanes> tmp{};
  for (std::size_t i = 0; i < kM61Lanes; ++i) tmp[i] = xs[base + i];
  return M61x8::load(tmp.data());
}

TEST(SimdCaps, ProbeIsConsistentAndLogged) {
  const SimdCaps& caps = simd_caps();
  // Visible in the test log so CI legs can confirm which path they exercised.
  std::printf("simd_caps: active=%s avx2_compiled=%d avx2_runtime=%d "
              "neon_compiled=%d forced_scalar=%d\n",
              caps.active, caps.avx2_compiled ? 1 : 0,
              caps.avx2_runtime ? 1 : 0, caps.neon_compiled ? 1 : 0,
              caps.forced_scalar ? 1 : 0);
  const std::string active = caps.active;
  EXPECT_TRUE(active == "avx2" || active == "neon" || active == "scalar");
  if (caps.forced_scalar) {
    EXPECT_EQ(active, "scalar");
  }
  if (active == "avx2") {
    EXPECT_TRUE(caps.avx2_compiled);
    EXPECT_TRUE(caps.avx2_runtime);
    EXPECT_FALSE(caps.forced_scalar);
  }
  if (active == "neon") {
    EXPECT_TRUE(caps.neon_compiled);
  }
  // The probe is cached: a second call must return the same selection.
  EXPECT_EQ(std::string(simd_caps().active), active);
}

TEST(M61x8, BroadcastLoadStoreRoundTrip) {
  const M61x8 b = M61x8::broadcast(M61(42));
  for (std::size_t i = 0; i < kM61Lanes; ++i) EXPECT_EQ(b.lane(i).value(), 42u);

  std::array<M61, kM61Lanes> in{};
  for (std::size_t i = 0; i < kM61Lanes; ++i) in[i] = M61(1000 + i);
  const M61x8 packed = M61x8::load(in.data());
  std::array<M61, kM61Lanes> out{};
  packed.store(out.data());
  for (std::size_t i = 0; i < kM61Lanes; ++i) EXPECT_EQ(out[i], in[i]);
}

TEST(M61x8, ReduceMatchesScalarConstructorOnBoundaries) {
  // Every pairing of boundary words through the packed fold vs M61(uint64).
  for (std::uint64_t hi : kRawBoundaries) {
    std::array<std::uint64_t, kM61Lanes> raw{};
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      raw[i] = i < kRawBoundaries.size() ? kRawBoundaries[i] : hi;
    }
    const M61x8 folded = M61x8::reduce(raw.data());
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      EXPECT_EQ(folded.lane(i), M61(raw[i])) << "lane " << i;
    }
  }
}

TEST(M61x8, ReduceMatchesScalarConstructorRandom) {
  Rng rng(101);
  for (int iter = 0; iter < 10000 / 8; ++iter) {
    std::array<std::uint64_t, kM61Lanes> raw{};
    for (auto& w : raw) w = rng();
    const M61x8 folded = M61x8::reduce(raw.data());
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      ASSERT_EQ(folded.lane(i), M61(raw[i])) << "lane " << i;
    }
  }
}

TEST(M61x8, AddSubMulMatchScalarOnBoundaries) {
  // Canonicalized boundary residues in every lane pairing: the raw words
  // above reduce to {0, 1, p-1} which are exactly the wrap-around cases.
  std::vector<M61> elems;
  elems.reserve(kRawBoundaries.size() * kRawBoundaries.size());
  for (std::uint64_t a : kRawBoundaries) {
    for (std::uint64_t b : kRawBoundaries) {
      elems.emplace_back(a + b);  // mixes the boundaries a little further
    }
  }
  for (std::uint64_t w : kRawBoundaries) elems.emplace_back(w);
  while (elems.size() % kM61Lanes != 0) elems.emplace_back(0);

  for (std::size_t i = 0; i + kM61Lanes <= elems.size(); i += kM61Lanes) {
    for (std::size_t j = 0; j + kM61Lanes <= elems.size(); j += kM61Lanes) {
      const M61x8 a = lanes_of(elems, i), b = lanes_of(elems, j);
      const M61x8 s = add(a, b), d = sub(a, b), p = mul(a, b);
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        ASSERT_EQ(s.lane(l), elems[i + l] + elems[j + l]) << "add lane " << l;
        ASSERT_EQ(d.lane(l), elems[i + l] - elems[j + l]) << "sub lane " << l;
        ASSERT_EQ(p.lane(l), elems[i + l] * elems[j + l]) << "mul lane " << l;
      }
    }
  }
}

TEST(M61x8, AddMatchesScalarRandom) {
  Rng rng(102);
  for (int iter = 0; iter < 10000 / 8; ++iter) {
    std::array<M61, kM61Lanes> xs{}, ys{};
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      xs[i] = random_m61(rng);
      ys[i] = random_m61(rng);
    }
    const M61x8 r = add(M61x8::load(xs.data()), M61x8::load(ys.data()));
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      ASSERT_EQ(r.lane(i), xs[i] + ys[i]) << "lane " << i;
    }
  }
}

TEST(M61x8, SubMatchesScalarRandom) {
  Rng rng(103);
  for (int iter = 0; iter < 10000 / 8; ++iter) {
    std::array<M61, kM61Lanes> xs{}, ys{};
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      xs[i] = random_m61(rng);
      ys[i] = random_m61(rng);
    }
    const M61x8 r = sub(M61x8::load(xs.data()), M61x8::load(ys.data()));
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      ASSERT_EQ(r.lane(i), xs[i] - ys[i]) << "lane " << i;
    }
  }
}

TEST(M61x8, MulMatchesScalarRandom) {
  Rng rng(104);
  for (int iter = 0; iter < 10000 / 8; ++iter) {
    std::array<M61, kM61Lanes> xs{}, ys{};
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      xs[i] = random_m61(rng);
      ys[i] = random_m61(rng);
    }
    const M61x8 r = mul(M61x8::load(xs.data()), M61x8::load(ys.data()));
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      ASSERT_EQ(r.lane(i), xs[i] * ys[i]) << "lane " << i;
    }
  }
}

TEST(M61x8, SelectIsBranchFreeTwoWay) {
  Rng rng(105);
  for (int iter = 0; iter < 10000 / 8; ++iter) {
    std::array<M61, kM61Lanes> xs{}, ys{};
    std::array<bool, kM61Lanes> take_a{};
    M61x8 mask = M61x8::zero();
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      xs[i] = random_m61(rng);
      ys[i] = random_m61(rng);
      take_a[i] = (rng() & 1) != 0;
      mask.v[i] = take_a[i] ? ~std::uint64_t{0} : 0;
    }
    const M61x8 r = select(mask, M61x8::load(xs.data()), M61x8::load(ys.data()));
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      ASSERT_EQ(r.lane(i), take_a[i] ? xs[i] : ys[i]) << "lane " << i;
    }
  }
}

TEST(M61x8, CmpEqBuildsFullLaneMasks) {
  Rng rng(106);
  for (int iter = 0; iter < 1000; ++iter) {
    std::array<M61, kM61Lanes> xs{}, ys{};
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      xs[i] = random_m61(rng);
      ys[i] = (rng() & 1) != 0 ? xs[i] : random_m61(rng);
    }
    const M61x8 m = cmp_eq(M61x8::load(xs.data()), M61x8::load(ys.data()));
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      ASSERT_EQ(m.v[i], xs[i] == ys[i] ? ~std::uint64_t{0} : std::uint64_t{0})
          << "lane " << i;
    }
  }
}

TEST(M61x8, HaddMatchesScalarSum) {
  Rng rng(107);
  for (int iter = 0; iter < 1000; ++iter) {
    std::array<M61, kM61Lanes> xs{};
    M61 expect(0);
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      xs[i] = random_m61(rng);
      expect = expect + xs[i];
    }
    ASSERT_EQ(M61x8::load(xs.data()).hadd(), expect);
  }
}

// Every dispatch path that is compiled into this binary must agree with the
// portable reference, whatever simd_caps() picked for the public ops.
TEST(M61x8, CompiledKernelsAgreeWithPortable) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (simd_caps().avx2_runtime) {
    Rng rng(108);
    for (int iter = 0; iter < 2000; ++iter) {
      M61x8 a = M61x8::zero(), b = M61x8::zero();
      std::array<std::uint64_t, kM61Lanes> raw{};
      for (std::size_t i = 0; i < kM61Lanes; ++i) {
        a.v[i] = random_m61(rng).value();
        b.v[i] = random_m61(rng).value();
        raw[i] = rng();
      }
      ASSERT_EQ(detail::add_avx2(a, b), detail::add_portable(a, b));
      ASSERT_EQ(detail::sub_avx2(a, b), detail::sub_portable(a, b));
      ASSERT_EQ(detail::mul_avx2(a, b), detail::mul_portable(a, b));
      ASSERT_EQ(detail::reduce_avx2(raw.data()), detail::reduce_portable(raw.data()));
    }
  } else {
    GTEST_SKIP() << "CPU lacks AVX2; cross-kernel check not runnable";
  }
#else
  GTEST_SKIP() << "no AVX2 kernel compiled on this target";
#endif
}

// --- fused kernel dispatchers -----------------------------------------------
// The OMPE hot loops go through these fused entry points (one dispatch per
// block, not per op). Contract: lane l of every result equals the scalar M61
// chain written in each dispatcher's doc comment. The CI forced-scalar leg
// reruns all of these through the portable kernels.

TEST(M61Kernels, Horner8MatchesScalarChain) {
  Rng rng(201);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{9}, std::size_t{33}}) {
    for (int iter = 0; iter < 200; ++iter) {
      std::vector<M61> c(n);
      for (auto& ci : c) ci = random_m61(rng);
      M61x8 x = M61x8::zero();
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        x.v[l] = random_m61(rng).value();
      }
      const M61x8 got = horner8(c.data(), n, x);
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        M61 acc = c[n - 1];
        for (std::size_t i = n - 1; i-- > 0;) acc = acc * x.lane(l) + c[i];
        ASSERT_EQ(got.lane(l), acc) << "n=" << n << " lane " << l;
      }
    }
  }
}

TEST(M61Kernels, Dot8ReduceMatchesScalarChain) {
  Rng rng(202);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{64}}) {
    for (int iter = 0; iter < 100; ++iter) {
      std::vector<M61> w(n);
      std::vector<std::uint64_t> raw(n * kM61Lanes);
      for (auto& wi : w) wi = random_m61(rng);
      for (auto& r : raw) r = rng();  // full 64-bit words: reduce in the loop
      M61x8 init = M61x8::zero();
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        init.v[l] = random_m61(rng).value();
      }
      const M61x8 got = dot8_reduce(init, w.data(), raw.data(), n);
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        M61 acc = init.lane(l);
        for (std::size_t i = 0; i < n; ++i) {
          acc = acc + w[i] * M61(raw[i * kM61Lanes + l]);
        }
        ASSERT_EQ(got.lane(l), acc) << "n=" << n << " lane " << l;
      }
    }
  }
}

TEST(M61Kernels, Dot8ReduceStridedMatchesDenseChain) {
  Rng rng(203);
  const std::size_t n = 19;
  // Strided wire layout: eight records of `stride` bytes, term i's word at
  // offset 8*i in each; the extra tail bytes must be ignored.
  const std::size_t stride = 8 * n + 13;
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<M61> w(n);
    for (auto& wi : w) wi = random_m61(rng);
    std::vector<std::uint8_t> buf(kM61Lanes * stride);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    std::vector<std::uint64_t> dense(n * kM61Lanes);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        std::uint64_t word = 0;
        std::memcpy(&word, buf.data() + l * stride + 8 * i, 8);
        dense[i * kM61Lanes + l] = word;
      }
    }
    const M61x8 init = M61x8::broadcast(random_m61(rng));
    const M61x8 got = dot8_reduce_strided(init, w.data(), buf.data(), stride, n);
    const M61x8 want = dot8_reduce(init, w.data(), dense.data(), n);
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      ASSERT_EQ(got.lane(l), want.lane(l)) << "lane " << l;
    }
  }
}

TEST(M61Kernels, Horner8ScatterStoresScalarHornerValues) {
  Rng rng(205);
  for (std::size_t deg_p1 : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                             std::size_t{9}}) {
    const std::size_t n = 17;
    std::vector<M61> c(n * deg_p1);
    for (auto& ci : c) ci = random_m61(rng);
    M61x8 x = M61x8::zero();
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      x.v[l] = random_m61(rng).value();
    }
    // Per-lane destination records at staggered offsets, like the kept
    // subset of a request body.
    std::vector<std::uint8_t> sink(kM61Lanes * (8 * n + 24), 0xee);
    std::array<std::uint8_t*, kM61Lanes> ptrs{};
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      ptrs[l] = sink.data() + l * (8 * n + 24) + (l % 3);
    }
    horner8_scatter(c.data(), deg_p1, n, x, ptrs.data());
    for (std::size_t g = 0; g < n; ++g) {
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        M61 acc = c[g * deg_p1 + deg_p1 - 1];
        for (std::size_t i = deg_p1 - 1; i-- > 0;) {
          acc = acc * x.lane(l) + c[g * deg_p1 + i];
        }
        std::uint64_t word = 0;
        std::memcpy(&word, ptrs[l] + 8 * g, 8);
        ASSERT_EQ(word, acc.value())
            << "deg_p1=" << deg_p1 << " g=" << g << " lane " << l;
      }
    }
  }
}

TEST(M61Kernels, HornerGroupsStoresScalarHornerValues) {
  Rng rng(209);
  for (std::size_t deg_p1 : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                             std::size_t{9}}) {
    // Group counts around the vector-block boundary (8 groups per block).
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                          std::size_t{21}}) {
      std::vector<M61> c(n * deg_p1);
      for (auto& ci : c) ci = random_m61(rng);
      const M61 x = random_m61(rng);
      std::vector<std::uint8_t> out(8 * n, 0xee);
      horner_groups(c.data(), deg_p1, n, x, out.data());
      for (std::size_t g = 0; g < n; ++g) {
        M61 acc = c[g * deg_p1 + deg_p1 - 1];
        for (std::size_t i = deg_p1 - 1; i-- > 0;) {
          acc = acc * x + c[g * deg_p1 + i];
        }
        std::uint64_t word = 0;
        std::memcpy(&word, out.data() + 8 * g, 8);
        ASSERT_EQ(word, acc.value())
            << "deg_p1=" << deg_p1 << " n=" << n << " g=" << g;
      }
    }
  }
}

// Both compiled kernel families must agree on the fused entry points too,
// not just the per-op primitives.
TEST(M61Kernels, FusedAvx2AgreesWithPortable) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (!simd_caps().avx2_runtime) {
    GTEST_SKIP() << "CPU lacks AVX2; cross-kernel check not runnable";
  }
  Rng rng(208);
  const std::size_t n = 23;
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<M61> c(n);
    for (auto& ci : c) ci = random_m61(rng);
    M61x8 x = M61x8::zero();
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      x.v[l] = random_m61(rng).value();
    }
    const M61x8 ha = detail::horner8_avx2(c.data(), n, x);
    const M61x8 hp = detail::horner8_portable(c.data(), n, x);
    ASSERT_EQ(ha, hp);

    std::vector<std::uint64_t> raw(n * kM61Lanes);
    for (auto& r : raw) r = rng();
    const M61x8 da = detail::dot8_reduce_avx2(x, c.data(), raw.data(), n);
    const M61x8 dp = detail::dot8_reduce_portable(x, c.data(), raw.data(), n);
    ASSERT_EQ(da, dp);
  }
#else
  GTEST_SKIP() << "no AVX2 kernel compiled on this target";
#endif
}

}  // namespace
}  // namespace ppds::field
