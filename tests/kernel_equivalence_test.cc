// Property-based equivalence of the dispatched SIMD kernels against the
// scalar reference (common/simd.h, nn/kernels.h), over randomized shapes:
// unaligned lengths, vector-remainder tails, denormals, signed zeros and
// ±inf. The determinism contract under test:
//
//  * elementwise kernels (axpy/add/mul/relu, the STOMP sliding-dot update,
//    the z-norm distance row) are BIT-IDENTICAL to the scalar reference;
//  * reduction kernels (dot/sum and the conv/gemm gradients built on them)
//    accumulate in double at every tier and may diverge only by reordered
//    double-rounding — asserted here as <= 4 ULP of the float32 result.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "nn/kernels.h"

namespace triad {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kDenorm = 1e-42f;  // subnormal float

// Lengths that exercise every dispatch regime: below one vector, exactly
// one vector, straddling the 8/4-lane block boundary, and large.
const std::vector<int64_t> kLengths = {1,  2,  3,  4,  5,  7,  8,  9,
                                       15, 16, 17, 31, 32, 33, 63, 64,
                                       65, 100, 255, 1000, 4097};

// Monotone integer key over the ordered floats; ULP distance is the key
// difference. Infinities map like ordinary ordered values.
int64_t FloatKey(float x) {
  const uint32_t u = std::bit_cast<uint32_t>(x);
  return (u & 0x80000000u) ? -static_cast<int64_t>(u & 0x7fffffffu)
                           : static_cast<int64_t>(u);
}

int64_t UlpDiff(float a, float b) {
  return std::llabs(FloatKey(a) - FloatKey(b));
}

std::vector<float> RandomFloats(int64_t n, Rng* rng, bool with_denormals) {
  std::vector<float> x(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = static_cast<float>(rng->Normal(0.0, 1.0));
  }
  if (with_denormals && n >= 3) {
    x[0] = kDenorm;
    x[static_cast<size_t>(n / 2)] = -kDenorm;
    x[static_cast<size_t>(n - 1)] = -0.0f;
  }
  return x;
}

std::vector<double> RandomDoubles(int64_t n, Rng* rng, double scale = 1.0) {
  std::vector<double> x(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = rng->Normal(0.0, scale);
  }
  return x;
}

bool BestTierIsVector() {
  return simd::HighestSupportedLevel() != simd::Level::kScalar;
}

// ---------- dispatch plumbing ----------

TEST(SimdDispatchTest, ScopedForceLevelOverridesAndRestores) {
  const simd::Level ambient = simd::ActiveLevel();
  {
    simd::ScopedForceLevel force(simd::Level::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
    {
      simd::ScopedForceLevel inner(simd::HighestSupportedLevel());
      EXPECT_EQ(simd::ActiveLevel(), simd::HighestSupportedLevel());
    }
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), ambient);
}

TEST(SimdDispatchTest, ForcedScalarTierMatchesReferenceBitForBit) {
  Rng rng(7);
  const std::vector<float> a = RandomFloats(257, &rng, true);
  const std::vector<float> b = RandomFloats(257, &rng, true);
  simd::ScopedForceLevel force(simd::Level::kScalar);
  const double dispatched = simd::Dot(a.data(), b.data(), 257);
  const double reference = simd::scalar::Dot(a.data(), b.data(), 257);
  EXPECT_EQ(std::bit_cast<uint64_t>(dispatched),
            std::bit_cast<uint64_t>(reference));
}

TEST(SimdDispatchTest, LevelNamesAreStable) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
}

// ---------- reductions: <= 4 ULP of the float32 result ----------

TEST(KernelEquivalenceTest, DotWithin4UlpAcrossShapes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (int64_t n : kLengths) {
      const std::vector<float> a = RandomFloats(n, &rng, true);
      const std::vector<float> b = RandomFloats(n, &rng, true);
      const double ref = simd::scalar::Dot(a.data(), b.data(), n);
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      const double got = simd::Dot(a.data(), b.data(), n);
      EXPECT_LE(UlpDiff(static_cast<float>(got), static_cast<float>(ref)), 4)
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(KernelEquivalenceTest, SumWithin4UlpAcrossShapes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (int64_t n : kLengths) {
      const std::vector<float> x = RandomFloats(n, &rng, true);
      const double ref = simd::scalar::Sum(x.data(), n);
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      const double got = simd::Sum(x.data(), n);
      EXPECT_LE(UlpDiff(static_cast<float>(got), static_cast<float>(ref)), 4)
          << "n=" << n << " seed=" << seed;
    }
  }
}

// ---------- elementwise: bit-identical ----------

TEST(KernelEquivalenceTest, AxpyBitIdenticalAcrossShapes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (int64_t n : kLengths) {
      const std::vector<float> x = RandomFloats(n, &rng, true);
      std::vector<float> y_ref = RandomFloats(n, &rng, true);
      std::vector<float> y_got = y_ref;
      const float alpha =
          seed == 1 ? kDenorm : static_cast<float>(rng.Normal(0.0, 1.0));
      simd::scalar::Axpy(alpha, x.data(), y_ref.data(), n);
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      simd::Axpy(alpha, x.data(), y_got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(y_got[static_cast<size_t>(i)]),
                  std::bit_cast<uint32_t>(y_ref[static_cast<size_t>(i)]))
            << "n=" << n << " i=" << i << " seed=" << seed;
      }
    }
  }
}

TEST(KernelEquivalenceTest, AddBitIdenticalIncludingInfinities) {
  Rng rng(11);
  for (int64_t n : kLengths) {
    std::vector<float> a = RandomFloats(n, &rng, true);
    std::vector<float> b = RandomFloats(n, &rng, true);
    a[0] = kInf;
    if (n > 1) b[static_cast<size_t>(n - 1)] = -kInf;
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::Add(a.data(), b.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::Add(a.data(), b.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelEquivalenceTest, MulBitIdenticalIncludingDenormalProducts) {
  Rng rng(12);
  for (int64_t n : kLengths) {
    // Denormal x normal products underflow to denormal/zero — the vector
    // tier must round them identically (no flush-to-zero).
    const std::vector<float> a = RandomFloats(n, &rng, true);
    const std::vector<float> b = RandomFloats(n, &rng, true);
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::Mul(a.data(), b.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::Mul(a.data(), b.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelEquivalenceTest, ReluBitIdenticalIncludingEdgeValues) {
  Rng rng(13);
  for (int64_t n : kLengths) {
    std::vector<float> x = RandomFloats(n, &rng, true);
    x[0] = -kInf;
    if (n > 1) x[1] = kInf;
    if (n > 2) x[2] = -0.0f;
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::Relu(x.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::Relu(x.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(ref[0], 0.0f);  // relu(-inf) = 0
    if (n > 1) {
      EXPECT_EQ(ref[1], kInf);  // relu(+inf) = +inf
    }
    if (n > 2) {  // relu(-0.0) = +0.0
      EXPECT_EQ(std::bit_cast<uint32_t>(ref[2]), 0u);
    }
  }
}

TEST(KernelEquivalenceTest, SlidingDotUpdateBitIdenticalAcrossShapes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 31);
    for (int64_t n : kLengths) {
      const std::vector<double> tail = RandomDoubles(n, &rng);
      const std::vector<double> head = RandomDoubles(n, &rng);
      const double drop = rng.Normal(0.0, 1.0);
      const double add = rng.Normal(0.0, 1.0);
      std::vector<double> qt_ref = RandomDoubles(n, &rng, 10.0);
      std::vector<double> qt_got = qt_ref;
      simd::scalar::SlidingDotUpdate(qt_ref.data(), n, drop, tail.data(), add,
                                     head.data());
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      simd::SlidingDotUpdate(qt_got.data(), n, drop, tail.data(), add,
                             head.data());
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(qt_got[static_cast<size_t>(i)]),
                  std::bit_cast<uint64_t>(qt_ref[static_cast<size_t>(i)]))
            << "n=" << n << " i=" << i << " seed=" << seed;
      }
    }
  }
}

TEST(KernelEquivalenceTest, DiagonalDotUpdateBitIdenticalAcrossShapes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 37);
    for (int64_t n : kLengths) {
      const std::vector<double> tail = RandomDoubles(n, &rng);
      const std::vector<double> head = RandomDoubles(n, &rng);
      const double drop = rng.Normal(0.0, 1.0);
      const double add = rng.Normal(0.0, 1.0);
      std::vector<double> ref = RandomDoubles(n, &rng, 10.0);
      std::vector<double> got = ref;
      simd::scalar::DiagonalDotUpdate(ref.data(), n, drop, tail.data(), add,
                                      head.data());
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      simd::DiagonalDotUpdate(got.data(), n, drop, tail.data(), add,
                              head.data());
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(got[static_cast<size_t>(i)]),
                  std::bit_cast<uint64_t>(ref[static_cast<size_t>(i)]))
            << "n=" << n << " i=" << i << " seed=" << seed;
      }
    }
  }
}

TEST(KernelEquivalenceTest, SweepCorrRowBitIdenticalWithFlatPenalties) {
  const double inf = std::numeric_limits<double>::infinity();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 41);
    for (int64_t n : kLengths) {
      const std::vector<double> q = RandomDoubles(n, &rng, 20.0);
      const std::vector<double> mu = RandomDoubles(n, &rng);
      std::vector<double> inv_sd(static_cast<size_t>(n));
      std::vector<double> penalty(static_cast<size_t>(n), 0.0);
      for (int64_t i = 0; i < n; ++i) {
        inv_sd[static_cast<size_t>(i)] = 1.0 / (std::abs(rng.Normal()) + 0.1);
      }
      // Flat columns (inv_sd 0, penalty -inf), a +0.0 correlation against a
      // -0.0 best (the max must keep the first operand on equal values),
      // and a running best already above the row's values.
      inv_sd[0] = 0.0;
      penalty[0] = -inf;
      std::vector<double> ref = RandomDoubles(n, &rng);
      ref[0] = -inf;
      if (n > 6) ref[6] = 5.0;
      std::vector<double> qz = q;
      std::vector<double> mz = mu;
      if (n > 3) {
        qz[3] = 0.0;
        mz[3] = 0.0;
        ref[3] = -0.0;
      }
      std::vector<double> got = ref;
      const double ref_max =
          simd::scalar::SweepCorrRow(qz.data(), mz.data(), inv_sd.data(),
                                     penalty.data(), 0.3, 1.7, 0.125,
                                     ref.data(), n);
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      const double got_max =
          simd::SweepCorrRow(qz.data(), mz.data(), inv_sd.data(),
                             penalty.data(), 0.3, 1.7, 0.125, got.data(), n);
      ASSERT_EQ(std::bit_cast<uint64_t>(got_max),
                std::bit_cast<uint64_t>(ref_max))
          << "n=" << n << " seed=" << seed;
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(got[static_cast<size_t>(i)]),
                  std::bit_cast<uint64_t>(ref[static_cast<size_t>(i)]))
            << "n=" << n << " i=" << i << " seed=" << seed;
      }
      EXPECT_EQ(ref[0], -inf);  // a flat column never gains a neighbour
    }
  }
  double none = 0.0;
  EXPECT_EQ(simd::SweepCorrRow(nullptr, nullptr, nullptr, nullptr, 0.0, 1.0,
                               1.0, &none, 0),
            -inf);
}

TEST(KernelEquivalenceTest, ZNormDistRowBitIdenticalWithFlatGuards) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 17);
    for (int64_t n : kLengths) {
      const int64_t m = 8 + static_cast<int64_t>(seed);
      const std::vector<double> dot = RandomDoubles(n, &rng, 4.0);
      const std::vector<double> mu = RandomDoubles(n, &rng);
      std::vector<double> sd(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        sd[static_cast<size_t>(i)] = std::abs(rng.Normal(1.0, 0.5)) + 1e-3;
      }
      // Flat windows sprinkled in (including a denormal stddev below the
      // 1e-12 guard) must hit the infinite-distance branch in both tiers.
      sd[0] = 0.0;
      if (n > 5) sd[5] = 1e-300;
      std::vector<double> ref(static_cast<size_t>(n)),
          got(static_cast<size_t>(n));
      simd::scalar::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.25, 1.5,
                                 m, ref.data(), n);
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      simd::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.25, 1.5, m,
                         got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(got[static_cast<size_t>(i)]),
                  std::bit_cast<uint64_t>(ref[static_cast<size_t>(i)]))
            << "n=" << n << " i=" << i << " seed=" << seed;
      }
      EXPECT_TRUE(std::isinf(ref[0]));  // flat window: marked incomparable
      EXPECT_GT(ref[0], 0.0);
    }
  }
}

TEST(KernelEquivalenceTest, ZNormDistRowFlatQueryMatchesScalar) {
  Rng rng(99);
  const int64_t n = 133, m = 16;
  const std::vector<double> dot = RandomDoubles(n, &rng);
  const std::vector<double> mu = RandomDoubles(n, &rng);
  std::vector<double> sd(static_cast<size_t>(n), 1.0);
  sd[7] = 0.0;  // flat query x flat window -> exactly 0
  std::vector<double> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
  simd::scalar::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.5,
                             /*sd_q=*/0.0, m, ref.data(), n);
  simd::ScopedForceLevel force(simd::HighestSupportedLevel());
  simd::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.5, 0.0, m, got.data(),
                     n);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got[static_cast<size_t>(i)]),
              std::bit_cast<uint64_t>(ref[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(ref[7], 0.0);                // flat query x flat window
  EXPECT_TRUE(std::isinf(ref[0]));       // flat query x structured window
  EXPECT_GT(ref[0], 0.0);
}

// ---------- fused kernels: per-element chains pinned to the primitives ----

// ConvTapDots' contract is per-tap bit-identity with Dot *at the same
// tier* (the fusion only shares the g loads), plus the usual <= 4 ULP
// envelope against the scalar reference.
TEST(KernelEquivalenceTest, ConvTapDotsMatchesPerTapDot) {
  Rng rng(31);
  for (const int64_t taps : {1, 2, 3, 5, 8}) {
    for (const int64_t dilation : {1, 2, 4}) {
      for (const int64_t lout : {1, 7, 8, 33, 255}) {
        const std::vector<float> g = RandomFloats(lout, &rng, true);
        const std::vector<float> x =
            RandomFloats(lout + (taps - 1) * dilation, &rng, true);
        for (const simd::Level level :
             {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
          simd::ScopedForceLevel force(level);
          std::vector<double> fused(static_cast<size_t>(taps));
          simd::ConvTapDots(x.data(), g.data(), taps, dilation, lout,
                            fused.data());
          for (int64_t t = 0; t < taps; ++t) {
            const double want = simd::Dot(x.data() + t * dilation, g.data(),
                                          lout);
            ASSERT_EQ(std::bit_cast<uint64_t>(fused[static_cast<size_t>(t)]),
                      std::bit_cast<uint64_t>(want))
                << simd::LevelName(level) << " taps=" << taps
                << " dilation=" << dilation << " lout=" << lout << " t=" << t;
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, CorrRowAccumBitIdenticalAcrossShapes) {
  Rng rng(32);
  // Includes lout < (taps-1)*dilation shapes, where the row is all edge
  // and the vector tier's interior block is empty.
  for (const auto& [cout, taps, dilation, lout] :
       {std::tuple<int64_t, int64_t, int64_t, int64_t>{1, 1, 1, 5},
        {4, 3, 1, 33},
        {8, 3, 4, 64},
        {5, 5, 2, 3},
        {3, 4, 8, 7},
        {2, 3, 2, 100}}) {
    const int64_t span = (taps - 1) * dilation;
    const std::vector<float> g = RandomFloats(cout * lout, &rng, true);
    std::vector<float> w = RandomFloats(cout * taps, &rng, true);
    w[0] = 0.0f;  // exercise the zero-weight skip
    const std::vector<float> seed_row =
        RandomFloats(lout + span, &rng, true);
    std::vector<float> ref = seed_row;
    std::vector<float> got = seed_row;
    simd::scalar::CorrRowAccum(g.data(), lout, w.data(), taps, cout, taps,
                               dilation, ref.data(), lout);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::CorrRowAccum(g.data(), lout, w.data(), taps, cout, taps, dilation,
                       got.data(), lout);
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
                std::bit_cast<uint32_t>(ref[i]))
          << "cout=" << cout << " taps=" << taps << " dilation=" << dilation
          << " lout=" << lout << " i=" << i;
    }
  }
}

TEST(KernelEquivalenceTest, DotPairMatchesTwoDots) {
  Rng rng(33);
  for (int64_t n : kLengths) {
    const std::vector<float> a = RandomFloats(n, &rng, true);
    const std::vector<float> b0 = RandomFloats(n, &rng, true);
    const std::vector<float> b1 = RandomFloats(n, &rng, true);
    for (const simd::Level level :
         {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
      simd::ScopedForceLevel force(level);
      double pair[2];
      simd::DotPair(a.data(), b0.data(), b1.data(), n, pair);
      ASSERT_EQ(std::bit_cast<uint64_t>(pair[0]),
                std::bit_cast<uint64_t>(simd::Dot(a.data(), b0.data(), n)))
          << simd::LevelName(level) << " n=" << n;
      ASSERT_EQ(std::bit_cast<uint64_t>(pair[1]),
                std::bit_cast<uint64_t>(simd::Dot(a.data(), b1.data(), n)))
          << simd::LevelName(level) << " n=" << n;
    }
  }
}

TEST(KernelEquivalenceTest, AddReluBitIdenticalIncludingEdgeValues) {
  Rng rng(34);
  for (int64_t n : kLengths) {
    std::vector<float> a = RandomFloats(n, &rng, true);
    std::vector<float> b = RandomFloats(n, &rng, true);
    a[0] = kInf;
    if (n > 1) b[static_cast<size_t>(n - 1)] = -b[static_cast<size_t>(n - 1)];
    if (n > 2) {  // NaN sum: relu(inf + -inf) must be 0 in both tiers
      a[2] = kInf;
      b[2] = -kInf;
    }
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::AddRelu(a.data(), b.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::AddRelu(a.data(), b.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
    if (n > 2) {
      EXPECT_EQ(ref[2], 0.0f);
    }
  }
}

TEST(KernelEquivalenceTest, AddReluMaskBitIdenticalIncludingNaNSums) {
  Rng rng(35);
  for (int64_t n : kLengths) {
    std::vector<float> a = RandomFloats(n, &rng, true);
    std::vector<float> b = RandomFloats(n, &rng, true);
    const std::vector<float> g = RandomFloats(n, &rng, true);
    if (n > 2) {  // NaN sum masks the gradient to 0 in both tiers
      a[2] = kInf;
      b[2] = -kInf;
    }
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::AddReluMask(a.data(), b.data(), g.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::AddReluMask(a.data(), b.data(), g.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
    if (n > 2) {
      EXPECT_EQ(ref[2], 0.0f);
    }
  }
}

TEST(KernelEquivalenceTest, ReluMaskBitIdenticalIncludingNaNAndNegZero) {
  Rng rng(36);
  for (int64_t n : kLengths) {
    std::vector<float> x = RandomFloats(n, &rng, true);
    const std::vector<float> g = RandomFloats(n, &rng, true);
    if (n > 2) x[2] = kNaN;   // NaN input masks the gradient to 0
    if (n > 3) x[3] = -0.0f;  // -0 is not > 0: masks to 0
    std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    simd::scalar::ReluMask(x.data(), g.data(), ref.data(), n);
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    simd::ReluMask(x.data(), g.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
    if (n > 2) {
      EXPECT_EQ(ref[2], 0.0f);
    }
    if (n > 3) {
      EXPECT_EQ(ref[3], 0.0f);
    }
  }
}

// ---------- composed kernels: conv / gemm ----------

// Runs fn once under the scalar tier and once under the best tier,
// returning both outputs.
template <typename Fn>
std::pair<std::vector<float>, std::vector<float>> RunBothTiers(int64_t out_size,
                                                               Fn fn) {
  std::vector<float> ref(static_cast<size_t>(out_size), 0.0f);
  std::vector<float> got(static_cast<size_t>(out_size), 0.0f);
  {
    simd::ScopedForceLevel force(simd::Level::kScalar);
    fn(ref.data());
  }
  {
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    fn(got.data());
  }
  return {std::move(ref), std::move(got)};
}

TEST(KernelEquivalenceTest, GemmForwardBitIdentical) {
  Rng rng(21);
  for (auto [m, k, n] : {std::tuple<int64_t, int64_t, int64_t>{3, 5, 7},
                         {8, 32, 32},
                         {1, 1, 1},
                         {16, 33, 9}}) {
    const std::vector<float> a = RandomFloats(m * k, &rng, true);
    const std::vector<float> b = RandomFloats(k * n, &rng, true);
    auto [ref, got] = RunBothTiers(m * n, [&](float* c) {
      nn::kernels::Gemm(a.data(), b.data(), c, m, k, n);
    });
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
                std::bit_cast<uint32_t>(ref[i]))
          << "m=" << m << " k=" << k << " n=" << n << " i=" << i;
    }
  }
}

TEST(KernelEquivalenceTest, GemmTransAForwardBitIdentical) {
  Rng rng(22);
  const int64_t m = 9, k = 17, n = 33;
  const std::vector<float> a = RandomFloats(k * m, &rng, true);
  const std::vector<float> b = RandomFloats(k * n, &rng, true);
  auto [ref, got] = RunBothTiers(m * n, [&](float* c) {
    nn::kernels::GemmTransA(a.data(), b.data(), c, m, k, n);
  });
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(ref[i]))
        << i;
  }
}

TEST(KernelEquivalenceTest, GemmTransBWithin4Ulp) {
  Rng rng(23);
  const int64_t m = 7, n = 129, k = 13;  // n is the reduced dimension
  const std::vector<float> a = RandomFloats(m * n, &rng, true);
  const std::vector<float> b = RandomFloats(k * n, &rng, true);
  auto [ref, got] = RunBothTiers(m * k, [&](float* c) {
    nn::kernels::GemmTransB(a.data(), b.data(), c, m, n, k);
  });
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_LE(UlpDiff(got[i], ref[i]), 4) << i;
  }
}

TEST(KernelEquivalenceTest, Conv1dForwardAndInputGradBitIdentical) {
  Rng rng(24);
  // Encoder-like shape with an unaligned length and a wide dilation.
  const int64_t B = 2, Cin = 3, Cout = 4, K = 3, dilation = 4;
  const int64_t Lout = 37, Lpad = Lout + dilation * (K - 1);
  const std::vector<float> xpad = RandomFloats(B * Cin * Lpad, &rng, true);
  const std::vector<float> w = RandomFloats(Cout * Cin * K, &rng, true);
  auto [ref, got] = RunBothTiers(B * Cout * Lout, [&](float* out) {
    nn::kernels::Conv1dForward(xpad.data(), w.data(), out, B, Cin, Cout, K,
                               Lpad, Lout, dilation);
  });
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(ref[i]))
        << i;
  }

  const std::vector<float> g = RandomFloats(B * Cout * Lout, &rng, true);
  auto [gref, ggot] = RunBothTiers(B * Cin * Lpad, [&](float* gxpad) {
    nn::kernels::Conv1dBackwardInput(g.data(), w.data(), gxpad, B, Cin, Cout,
                                     K, Lpad, Lout, dilation);
  });
  for (size_t i = 0; i < gref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(ggot[i]),
              std::bit_cast<uint32_t>(gref[i]))
        << i;
  }
}

TEST(KernelEquivalenceTest, Conv1dWeightAndBiasGradWithin4Ulp) {
  Rng rng(25);
  const int64_t B = 2, Cin = 3, Cout = 4, K = 3, dilation = 2;
  const int64_t Lout = 41, Lpad = Lout + dilation * (K - 1);
  const std::vector<float> xpad = RandomFloats(B * Cin * Lpad, &rng, true);
  const std::vector<float> g = RandomFloats(B * Cout * Lout, &rng, true);
  auto [wref, wgot] = RunBothTiers(Cout * Cin * K, [&](float* gw) {
    nn::kernels::Conv1dBackwardWeight(g.data(), xpad.data(), gw, B, Cin, Cout,
                                      K, Lpad, Lout, dilation);
  });
  for (size_t i = 0; i < wref.size(); ++i) {
    EXPECT_LE(UlpDiff(wgot[i], wref[i]), 4) << i;
  }
  auto [bref, bgot] = RunBothTiers(Cout, [&](float* gb) {
    nn::kernels::Conv1dBackwardBias(g.data(), gb, B, Cout, Lout);
  });
  for (size_t i = 0; i < bref.size(); ++i) {
    EXPECT_LE(UlpDiff(bgot[i], bref[i]), 4) << i;
  }
}

// ---------- float32 precision tier (ARCHITECTURE.md §12) ----------
//
// The f32 inference kernels carry a two-part contract:
//  * elementwise f32 kernels (SlidingDotUpdateF32, ZNormDistRowF32) are
//    BIT-IDENTICAL across SIMD tiers (correctly rounded per-lane ops, no
//    FMA contraction, flat guards on an exactly representable threshold);
//  * f32 reductions (DotF32, DotPairF32) accumulate in single precision
//    and are gated against the double reference by an O(n·eps_f32)
//    relative-error envelope — the value-level bound ARCHITECTURE.md §12
//    documents, tested over denormal/±inf/flat-window edges.

TEST(PrecisionDispatchTest, ScopedForcePrecisionOverridesAndRestores) {
  const simd::Precision ambient = simd::ActivePrecision();
  {
    simd::ScopedForcePrecision force(simd::Precision::kF32);
    EXPECT_EQ(simd::ActivePrecision(), simd::Precision::kF32);
    {
      simd::ScopedForcePrecision inner(simd::Precision::kF64);
      EXPECT_EQ(simd::ActivePrecision(), simd::Precision::kF64);
    }
    EXPECT_EQ(simd::ActivePrecision(), simd::Precision::kF32);
  }
  EXPECT_EQ(simd::ActivePrecision(), ambient);
}

TEST(PrecisionDispatchTest, PrecisionNamesAreStable) {
  EXPECT_STREQ(simd::PrecisionName(simd::Precision::kF64), "f64");
  EXPECT_STREQ(simd::PrecisionName(simd::Precision::kF32), "f32");
}

TEST(PrecisionDispatchTest, ResolveHonorsExplicitRequestOverAuto) {
  simd::ScopedForcePrecision force(simd::Precision::kF64);
  EXPECT_EQ(simd::ResolvePrecision(simd::PrecisionRequest::kAuto),
            simd::Precision::kF64);
  EXPECT_EQ(simd::ResolvePrecision(simd::PrecisionRequest::kF32),
            simd::Precision::kF32);
  EXPECT_EQ(simd::ResolvePrecision(simd::PrecisionRequest::kF64),
            simd::Precision::kF64);
  simd::ScopedForcePrecision inner(simd::Precision::kF32);
  EXPECT_EQ(simd::ResolvePrecision(simd::PrecisionRequest::kAuto),
            simd::Precision::kF32);
}

// Sequential single-precision accumulation of n products loses at most
// ~n·eps_f32 of the magnitude sum Σ|a_i·b_i| (the classic forward error
// bound); the AVX2 even/odd split only reorders the same additions. The
// factor-2 slack and the +8 keep tiny n and the lane fold inside the gate
// without ever letting a double-accumulated path sneak through (double
// accumulation would pass trivially — the gate is an upper bound, the
// speedup claim is what keeps the implementation honest).
double DotF32Tolerance(const std::vector<float>& a,
                       const std::vector<float>& b) {
  double mag = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    mag += std::abs(static_cast<double>(a[i]) * static_cast<double>(b[i]));
  }
  return 2.0 * static_cast<double>(a.size() + 8) * 6e-8 * mag + 1e-30;
}

TEST(PrecisionKernelTest, DotF32WithinEnvelopeOfDoubleReferenceBothTiers) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 41);
    for (int64_t n : kLengths) {
      const std::vector<float> a = RandomFloats(n, &rng, true);
      const std::vector<float> b = RandomFloats(n, &rng, true);
      double ref = 0.0;  // exact-order double reference
      for (int64_t i = 0; i < n; ++i) {
        ref += static_cast<double>(a[static_cast<size_t>(i)]) *
               static_cast<double>(b[static_cast<size_t>(i)]);
      }
      const double tol = DotF32Tolerance(a, b);
      for (const simd::Level level :
           {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
        simd::ScopedForceLevel force(level);
        const float got = simd::DotF32(a.data(), b.data(), n);
        EXPECT_NEAR(static_cast<double>(got), ref, tol)
            << simd::LevelName(level) << " n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(PrecisionKernelTest, DotF32PropagatesInfinity) {
  Rng rng(77);
  std::vector<float> a = RandomFloats(65, &rng, false);
  std::vector<float> b = RandomFloats(65, &rng, false);
  a[3] = kInf;
  b[3] = 2.0f;
  for (const simd::Level level :
       {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
    simd::ScopedForceLevel force(level);
    EXPECT_EQ(simd::DotF32(a.data(), b.data(), 65), kInf)
        << simd::LevelName(level);
  }
}

// DotPairF32's fusion only shares the a-side loads: each output must be
// bit-identical to a standalone DotF32 at the same tier.
TEST(PrecisionKernelTest, DotPairF32MatchesTwoDotF32s) {
  Rng rng(42);
  for (int64_t n : kLengths) {
    const std::vector<float> a = RandomFloats(n, &rng, true);
    const std::vector<float> b0 = RandomFloats(n, &rng, true);
    const std::vector<float> b1 = RandomFloats(n, &rng, true);
    for (const simd::Level level :
         {simd::Level::kScalar, simd::HighestSupportedLevel()}) {
      simd::ScopedForceLevel force(level);
      float pair[2];
      simd::DotPairF32(a.data(), b0.data(), b1.data(), n, pair);
      ASSERT_EQ(std::bit_cast<uint32_t>(pair[0]),
                std::bit_cast<uint32_t>(simd::DotF32(a.data(), b0.data(), n)))
          << simd::LevelName(level) << " n=" << n;
      ASSERT_EQ(std::bit_cast<uint32_t>(pair[1]),
                std::bit_cast<uint32_t>(simd::DotF32(a.data(), b1.data(), n)))
          << simd::LevelName(level) << " n=" << n;
    }
  }
}

TEST(PrecisionKernelTest, SlidingDotUpdateF32BitIdenticalAcrossTiers) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 43);
    for (int64_t n : kLengths) {
      const std::vector<float> tail = RandomFloats(n, &rng, true);
      const std::vector<float> head = RandomFloats(n, &rng, true);
      const float drop = static_cast<float>(rng.Normal(0.0, 1.0));
      const float add = static_cast<float>(rng.Normal(0.0, 1.0));
      std::vector<float> qt_ref = RandomFloats(n, &rng, true);
      for (size_t i = 0; i < qt_ref.size(); ++i) qt_ref[i] *= 10.0f;
      std::vector<float> qt_got = qt_ref;
      simd::scalar::SlidingDotUpdateF32(qt_ref.data(), n, drop, tail.data(),
                                        add, head.data());
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      simd::SlidingDotUpdateF32(qt_got.data(), n, drop, tail.data(), add,
                                head.data());
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(qt_got[static_cast<size_t>(i)]),
                  std::bit_cast<uint32_t>(qt_ref[static_cast<size_t>(i)]))
            << "n=" << n << " i=" << i << " seed=" << seed;
      }
    }
  }
}

TEST(PrecisionKernelTest, ZNormDistRowF32BitIdenticalWithFlatGuards) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 47);
    for (int64_t n : kLengths) {
      const int64_t m = 8 + static_cast<int64_t>(seed);
      const std::vector<float> dot = RandomFloats(n, &rng, true);
      const std::vector<float> mu = RandomFloats(n, &rng, true);
      std::vector<float> sd(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        sd[static_cast<size_t>(i)] =
            std::abs(static_cast<float>(rng.Normal(1.0, 0.5))) + 1e-3f;
      }
      // Flat windows (exact zero and a denormal below the 1e-12f guard)
      // must hit the infinite-distance branch in both tiers.
      sd[0] = 0.0f;
      if (n > 5) sd[5] = kDenorm;
      std::vector<float> ref(static_cast<size_t>(n)),
          got(static_cast<size_t>(n));
      simd::scalar::ZNormDistRowF32(dot.data(), mu.data(), sd.data(), 0.25f,
                                    1.5f, m, ref.data(), n);
      simd::ScopedForceLevel force(simd::HighestSupportedLevel());
      simd::ZNormDistRowF32(dot.data(), mu.data(), sd.data(), 0.25f, 1.5f, m,
                            got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                  std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]))
            << "n=" << n << " i=" << i << " seed=" << seed;
      }
      EXPECT_TRUE(std::isinf(ref[0]));  // flat window: marked incomparable
      EXPECT_GT(ref[0], 0.0f);
      if (n > 5) {
        EXPECT_TRUE(std::isinf(ref[5]));  // denormal stddev is flat too
      }
    }
  }
}

TEST(PrecisionKernelTest, ZNormDistRowF32FlatQueryMatchesScalar) {
  Rng rng(101);
  const int64_t n = 133, m = 16;
  const std::vector<float> dot = RandomFloats(n, &rng, true);
  const std::vector<float> mu = RandomFloats(n, &rng, true);
  std::vector<float> sd(static_cast<size_t>(n), 1.0f);
  sd[7] = 0.0f;  // flat query x flat window -> exactly 0
  std::vector<float> ref(static_cast<size_t>(n)), got(static_cast<size_t>(n));
  simd::scalar::ZNormDistRowF32(dot.data(), mu.data(), sd.data(), 0.5f,
                                /*sd_q=*/0.0f, m, ref.data(), n);
  simd::ScopedForceLevel force(simd::HighestSupportedLevel());
  simd::ZNormDistRowF32(dot.data(), mu.data(), sd.data(), 0.5f, 0.0f, m,
                        got.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
              std::bit_cast<uint32_t>(ref[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(ref[7], 0.0f);          // flat query x flat window
  EXPECT_TRUE(std::isinf(ref[0]));  // flat query x structured window
  EXPECT_GT(ref[0], 0.0f);
}

// Value-level accuracy of the f32 distance row against the double kernel
// on identical (narrowed-then-widened) inputs. The row is elementwise with
// a handful of correctly rounded single-precision ops, so squared
// distances agree to O(m·eps_f32); comparing d² sidesteps the sqrt's
// error amplification near d = 0. Flat guards must agree EXACTLY (same
// ±inf/0 placement) — that is what keeps verdicts tier-independent.
TEST(PrecisionKernelTest, ZNormDistRowF32SquaredDistanceNearDoubleKernel) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 53);
    const int64_t n = 1000, m = 64;
    std::vector<float> dot32(static_cast<size_t>(n)),
        mu32(static_cast<size_t>(n)), sd32(static_cast<size_t>(n));
    std::vector<double> dot64(static_cast<size_t>(n)),
        mu64(static_cast<size_t>(n)), sd64(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      // dot scaled like a real QT row: O(m) magnitude.
      dot32[static_cast<size_t>(i)] =
          static_cast<float>(rng.Normal(0.0, 8.0));
      mu32[static_cast<size_t>(i)] = static_cast<float>(rng.Normal(0.0, 1.0));
      sd32[static_cast<size_t>(i)] =
          std::abs(static_cast<float>(rng.Normal(1.0, 0.25))) + 0.05f;
      dot64[static_cast<size_t>(i)] =
          static_cast<double>(dot32[static_cast<size_t>(i)]);
      mu64[static_cast<size_t>(i)] =
          static_cast<double>(mu32[static_cast<size_t>(i)]);
      sd64[static_cast<size_t>(i)] =
          static_cast<double>(sd32[static_cast<size_t>(i)]);
    }
    sd32[0] = 0.0f;  // the guards must land identically in both kernels
    sd64[0] = 0.0;
    std::vector<float> d32(static_cast<size_t>(n));
    std::vector<double> d64(static_cast<size_t>(n));
    simd::ZNormDistRowF32(dot32.data(), mu32.data(), sd32.data(), 0.25f, 1.5f,
                          m, d32.data(), n);
    simd::ZNormDistRow(dot64.data(), mu64.data(), sd64.data(), 0.25, 1.5, m,
                       d64.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      const double a = static_cast<double>(d32[static_cast<size_t>(i)]);
      const double b = d64[static_cast<size_t>(i)];
      if (std::isinf(b)) {
        EXPECT_TRUE(std::isinf(a)) << "i=" << i << " seed=" << seed;
        continue;
      }
      EXPECT_NEAR(a * a, b * b, 2.0 * static_cast<double>(m) * 1e-5)
          << "i=" << i << " seed=" << seed;
    }
  }
}

// On a host without a vector tier every comparison above collapses to
// scalar-vs-scalar; record that fact so CI logs show what was covered.
TEST(KernelEquivalenceTest, ReportsCoveredTier) {
  SCOPED_TRACE(simd::LevelName(simd::HighestSupportedLevel()));
  if (!BestTierIsVector()) {
    GTEST_SKIP() << "no vector tier on this host; equivalence is trivial";
  }
  EXPECT_EQ(simd::HighestSupportedLevel(), simd::Level::kAvx2);
}

}  // namespace
}  // namespace triad
