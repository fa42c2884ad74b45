// Equivalence and gradient tests for the window-major batched execution
// path (TRIAD_NN_BATCHED, nn/ops.h BatchedExecutionEnabled).
//
// The contract under test (ARCHITECTURE.md §11): the batched path — im2col
// GEMM Conv1d, flattened/row-parallel MatMul, and the fused elementwise
// chains of nn/fused.h — is BIT-IDENTICAL to the serial composite
// reference, at both SIMD tiers and at any thread count, in the forward
// values and in every accumulated gradient. Where the kernels reorganize
// loops they preserve the per-element accumulation order exactly, so the
// assertions here are exact bit equality, not ULP bounds.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "nn/grad_check.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/ops.h"

namespace triad::nn {
namespace {

void ExpectBitEqual(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(a[i]), std::bit_cast<uint32_t>(b[i]))
        << what << " diverges at flat index " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

// Projects to a scalar with fixed pseudo-random weights so gradients are
// asymmetric (a plain sum would hide transposition bugs).
Var WeightedSum(const Var& v) {
  Tensor w(v.shape());
  for (int64_t i = 0; i < w.size(); ++i) {
    w[i] = 0.2f + 0.1f * static_cast<float>((i * 2654435761u) % 13);
  }
  return SumAll(Mul(v, Constant(std::move(w))));
}

// Mean-scaled loss for finite-difference grad checks: float32 FD noise is
// proportional to |loss|, so a SumAll over a few hundred elements drowns
// tiny true gradients (saturated tanh, normalize projections) in rounding
// noise. Keeping the loss O(1) keeps the noise below MaxGradError's `tol`.
Var GradCheckLoss(const Var& v) {
  int64_t n = 1;
  for (const int64_t d : v.shape()) n *= d;
  return MulScalar(WeightedSum(v), 1.0f / static_cast<float>(n));
}

bool BestTierIsVector() {
  return simd::HighestSupportedLevel() != simd::Level::kScalar;
}

// Runs `build` under the given execution mode, backprops a weighted-sum
// loss, and returns {forward value, leaf gradients...}.
std::vector<Tensor> RunGraph(
    bool batched, const std::vector<Var>& leaves,
    const std::function<Var(const std::vector<Var>&)>& build) {
  ScopedBatchedExecution mode(batched);
  for (const auto& l : leaves) l.ZeroGrad();
  Var out = build(leaves);
  WeightedSum(out).Backward();
  std::vector<Tensor> result = {out.value()};
  for (const auto& l : leaves) result.push_back(l.grad());
  return result;
}

// Runs the comparison at the scalar tier and (when available) the vector
// tier, and with the batched kernels on a 1-thread and a 4-thread pool.
void ExpectModesBitIdenticalEverywhere(
    const std::vector<Var>& leaves,
    const std::function<Var(const std::vector<Var>&)>& build) {
  for (const bool vector_tier : {false, true}) {
    if (vector_tier && !BestTierIsVector()) continue;
    simd::ScopedForceLevel tier(vector_tier ? simd::HighestSupportedLevel()
                                            : simd::Level::kScalar);
    ThreadPool serial(1), quad(4);
    std::vector<Tensor> reference;
    {
      ScopedDefaultPool pool(&serial);
      reference = RunGraph(false, leaves, build);
    }
    for (ThreadPool* pool : {&serial, &quad}) {
      ScopedDefaultPool scoped(pool);
      const std::vector<Tensor> got = RunGraph(true, leaves, build);
      ASSERT_EQ(reference.size(), got.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ExpectBitEqual(reference[i], got[i],
                       i == 0 ? "forward value" : "leaf gradient");
      }
    }
  }
}

// ---------- gate plumbing ----------

TEST(BatchedGateTest, ScopedOverrideNestsAndRestores) {
  const bool ambient = BatchedExecutionEnabled();
  {
    ScopedBatchedExecution off(false);
    EXPECT_FALSE(BatchedExecutionEnabled());
    {
      ScopedBatchedExecution on(true);
      EXPECT_TRUE(BatchedExecutionEnabled());
    }
    EXPECT_FALSE(BatchedExecutionEnabled());
  }
  EXPECT_EQ(BatchedExecutionEnabled(), ambient);
}

// ---------- SIMD tier x execution mode ----------

// The batched gate composes with the SIMD dispatch: a representative
// training step (conv -> fused add+relu -> matmul -> normalize) gives the
// same bits in its forward value and every leaf gradient at all four
// {scalar, vector} x {serial, batched} combinations — across tiers, not
// only between modes at one tier.
TEST(BatchedKnobMatrixTest, TrainingStepBitIdenticalAcrossTiersAndModes) {
  Rng rng(55);
  const int64_t B = 3, Cin = 2, Cout = 4, K = 3, L = 24;
  const std::vector<Var> leaves = {
      Var(Tensor::Randn({B, Cin, L}, &rng), /*requires_grad=*/true),
      Var(Tensor::Randn({Cout, Cin, K}, &rng), /*requires_grad=*/true),
      Var(Tensor::Randn({Cout}, &rng), /*requires_grad=*/true),
      Var(Tensor::Randn({Cout * L, 6}, &rng), /*requires_grad=*/true)};
  const auto build = [](const std::vector<Var>& l) {
    Var conv = Conv1d(l[0], l[1], l[2], /*dilation=*/2, /*pad_left=*/4,
                      /*pad_right=*/0);
    Var act = AddRelu(conv, conv);
    const auto& s = act.shape();  // [B, Cout, L]: causal padding keeps L
    return L2NormalizeLastDim(
        MatMul(Reshape(act, {s[0], s[1] * s[2]}), l[3]));
  };

  std::vector<Tensor> reference;
  {
    simd::ScopedForceLevel scalar(simd::Level::kScalar);
    reference = RunGraph(/*batched=*/false, leaves, build);
  }
  for (const bool vector_tier : {false, true}) {
    if (vector_tier && !BestTierIsVector()) continue;
    simd::ScopedForceLevel tier(vector_tier ? simd::HighestSupportedLevel()
                                            : simd::Level::kScalar);
    for (const bool batched : {false, true}) {
      SCOPED_TRACE(std::string(vector_tier ? "vector" : "scalar") + "/" +
                   (batched ? "batched" : "serial"));
      const std::vector<Tensor> got = RunGraph(batched, leaves, build);
      ASSERT_EQ(reference.size(), got.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ExpectBitEqual(reference[i], got[i],
                       i == 0 ? "forward value" : "leaf gradient");
      }
    }
  }
}

// ---------- kernel-level equivalence ----------

// The batched forward gathers taps implicitly (no materialized im2col
// matrix); this pins the strided reads against a naive per-element gather.
TEST(BatchedKernelTest, ImplicitIm2ColForwardGathersTaps) {
  Rng rng(11);
  const int64_t B = 3, Cin = 2, Cout = 4, K = 3, Lpad = 12, dilation = 2;
  const int64_t Lout = Lpad - dilation * (K - 1);
  Tensor xpad = Tensor::Randn({B, Cin, Lpad}, &rng);
  Tensor w = Tensor::Randn({Cout, Cin, K}, &rng);
  Tensor got({B, Cout, Lout});
  kernels::Conv1dForwardBatched(xpad.data(), w.data(), /*bias=*/nullptr,
                                got.data(), B, Cin, Cout, K, Lpad, Lout,
                                dilation);
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t co = 0; co < Cout; ++co) {
      for (int64_t t = 0; t < Lout; ++t) {
        float want = 0.0f;
        for (int64_t ci = 0; ci < Cin; ++ci) {
          for (int64_t k = 0; k < K; ++k) {
            want += w[(co * Cin + ci) * K + k] *
                    xpad[(b * Cin + ci) * Lpad + t + k * dilation];
          }
        }
        EXPECT_EQ(want, got[(b * Cout + co) * Lout + t])
            << "b=" << b << " co=" << co << " t=" << t;
      }
    }
  }
}

struct GemmShape {
  int64_t m, k, n;
};

TEST(BatchedKernelTest, GemmRowsParallelMatchesGemmBitExact) {
  Rng rng(12);
  ThreadPool quad(4);
  ScopedDefaultPool scoped(&quad);
  const std::vector<GemmShape> shapes = {
      {1, 1, 1}, {3, 5, 7}, {16, 32, 9}, {33, 8, 65}, {64, 32, 120}};
  for (const auto& [m, k, n] : shapes) {
    Tensor a = Tensor::Randn({m, k}, &rng);
    Tensor b = Tensor::Randn({k, n}, &rng);
    a[0] = 0.0f;  // exercise the zero-skip
    Tensor want({m, n}), got({m, n});
    kernels::Gemm(a.data(), b.data(), want.data(), m, k, n);
    kernels::GemmRowsParallel(a.data(), b.data(), got.data(), m, k, n);
    ExpectBitEqual(want, got, "GemmRowsParallel");

    Tensor wantTA({m, n}), gotTA({m, n});
    Tensor ta = Tensor::Randn({k, m}, &rng);
    ta[0] = 0.0f;
    kernels::GemmTransA(ta.data(), b.data(), wantTA.data(), m, k, n);
    kernels::GemmTransARowsParallel(ta.data(), b.data(), gotTA.data(), m, k,
                                    n);
    ExpectBitEqual(wantTA, gotTA, "GemmTransARowsParallel");

    Tensor bt = Tensor::Randn({n, k}, &rng);
    Tensor wantTB({m, n}), gotTB({m, n});
    Tensor at = Tensor::Randn({m, k}, &rng);
    kernels::GemmTransB(at.data(), bt.data(), wantTB.data(), m, k, n);
    kernels::GemmTransBRowsParallel(at.data(), bt.data(), gotTB.data(), m, k,
                                    n);
    ExpectBitEqual(wantTB, gotTB, "GemmTransBRowsParallel");
  }
}

struct ConvShape {
  int64_t B, Cin, Cout, K, L, dilation;
};

TEST(BatchedKernelTest, BatchedConvKernelsMatchReferenceBitExact) {
  Rng rng(13);
  ThreadPool quad(4);
  ScopedDefaultPool scoped(&quad);
  const std::vector<ConvShape> shapes = {{1, 1, 1, 1, 4, 1},
                                         {2, 1, 4, 3, 16, 1},
                                         {3, 3, 8, 3, 33, 2},
                                         {4, 8, 8, 3, 64, 4},
                                         {8, 2, 5, 5, 40, 2}};
  for (const auto& [B, Cin, Cout, K, L, dilation] : shapes) {
    const int64_t span = dilation * (K - 1);
    const int64_t Lpad = L + span;
    const int64_t Lout = L;
    Tensor xpad = Tensor::Randn({B, Cin, Lpad}, &rng);
    Tensor w = Tensor::Randn({Cout, Cin, K}, &rng);
    w[0] = 0.0f;  // exercise the zero-weight skip
    Tensor bias = Tensor::Randn({Cout}, &rng);
    Tensor g = Tensor::Randn({B, Cout, Lout}, &rng);

    // Forward.
    Tensor want({B, Cout, Lout});
    for (int64_t b = 0; b < B; ++b) {
      for (int64_t co = 0; co < Cout; ++co) {
        float* row = want.data() + (b * Cout + co) * Lout;
        for (int64_t t = 0; t < Lout; ++t) row[t] = bias[co];
      }
    }
    kernels::Conv1dForward(xpad.data(), w.data(), want.data(), B, Cin, Cout,
                           K, Lpad, Lout, dilation);
    Tensor got({B, Cout, Lout});
    kernels::Conv1dForwardBatched(xpad.data(), w.data(), bias.data(),
                                  got.data(), B, Cin, Cout, K, Lpad, Lout,
                                  dilation);
    ExpectBitEqual(want, got, "Conv1dForwardBatched");

    // Input gradient.
    Tensor gx_want({B, Cin, Lpad}), gx_got({B, Cin, Lpad});
    kernels::Conv1dBackwardInput(g.data(), w.data(), gx_want.data(), B, Cin,
                                 Cout, K, Lpad, Lout, dilation);
    kernels::Conv1dBackwardInputBatched(g.data(), w.data(), gx_got.data(), B,
                                        Cin, Cout, K, Lpad, Lout, dilation);
    ExpectBitEqual(gx_want, gx_got, "Conv1dBackwardInputBatched");

    // Weight gradient.
    Tensor gw_want({Cout, Cin, K}), gw_got({Cout, Cin, K});
    kernels::Conv1dBackwardWeight(g.data(), xpad.data(), gw_want.data(), B,
                                  Cin, Cout, K, Lpad, Lout, dilation);
    kernels::Conv1dBackwardWeightBatched(g.data(), xpad.data(), gw_got.data(),
                                         B, Cin, Cout, K, Lpad, Lout,
                                         dilation);
    ExpectBitEqual(gw_want, gw_got, "Conv1dBackwardWeightBatched");

    // Bias gradient.
    Tensor gb_want({Cout}), gb_got({Cout});
    kernels::Conv1dBackwardBias(g.data(), gb_want.data(), B, Cout, Lout);
    kernels::Conv1dBackwardBiasBatched(g.data(), gb_got.data(), B, Cout,
                                       Lout);
    ExpectBitEqual(gb_want, gb_got, "Conv1dBackwardBiasBatched");
  }
}

// ---------- op/graph-level equivalence: batched vs reference ----------

TEST(BatchedOpsTest, Conv1dBatchedVsReferenceBitIdentical) {
  Rng rng(21);
  const std::vector<ConvShape> shapes = {{2, 1, 4, 3, 16, 1},
                                         {3, 3, 8, 3, 20, 2},
                                         {4, 8, 8, 3, 32, 4},
                                         {1, 2, 2, 1, 7, 1}};
  for (const auto& [B, Cin, Cout, K, L, dilation] : shapes) {
    const int64_t span = dilation * (K - 1);
    std::vector<Var> leaves = {
        Var(Tensor::Randn({B, Cin, L}, &rng), /*requires_grad=*/true),
        Var(Tensor::Randn({Cout, Cin, K}, &rng), /*requires_grad=*/true),
        Var(Tensor::Randn({Cout}, &rng), /*requires_grad=*/true)};
    const int64_t pl = span / 2, pr = span - span / 2;
    ExpectModesBitIdenticalEverywhere(leaves, [=](const std::vector<Var>& l) {
      return Conv1d(l[0], l[1], l[2], dilation, pl, pr);
    });
  }
}

TEST(BatchedOpsTest, MatMulBatchedVsReferenceBitIdentical) {
  Rng rng(22);
  // 2D x 2D.
  const std::vector<GemmShape> shapes2d = {{2, 3, 4}, {8, 16, 8}, {33, 7, 9}};
  for (const auto& [m, k, n] : shapes2d) {
    std::vector<Var> leaves = {
        Var(Tensor::Randn({m, k}, &rng), /*requires_grad=*/true),
        Var(Tensor::Randn({k, n}, &rng), /*requires_grad=*/true)};
    ExpectModesBitIdenticalEverywhere(leaves, [](const std::vector<Var>& l) {
      return MatMul(l[0], l[1]);
    });
  }
  // 3D x 2D (shared right operand; the flattened-GEMM path).
  struct BatchedShape {
    int64_t bsz, m, k, n;
  };
  const std::vector<BatchedShape> shapes3d = {
      {2, 4, 3, 5}, {5, 16, 8, 8}, {3, 9, 33, 2}};
  for (const auto& [bsz, m, k, n] : shapes3d) {
    std::vector<Var> leaves = {
        Var(Tensor::Randn({bsz, m, k}, &rng), /*requires_grad=*/true),
        Var(Tensor::Randn({k, n}, &rng), /*requires_grad=*/true)};
    ExpectModesBitIdenticalEverywhere(leaves, [](const std::vector<Var>& l) {
      return MatMul(l[0], l[1]);
    });
  }
}

TEST(BatchedOpsTest, AddReluFusedVsCompositeBitIdentical) {
  Rng rng(23);
  // Same-shape (residual add -> relu).
  {
    std::vector<Var> leaves = {
        Var(Tensor::Randn({4, 8, 16}, &rng), /*requires_grad=*/true),
        Var(Tensor::Randn({4, 8, 16}, &rng), /*requires_grad=*/true)};
    ExpectModesBitIdenticalEverywhere(leaves, [](const std::vector<Var>& l) {
      return AddRelu(l[0], l[1]);
    });
    // The fused op must equal the composite spelling under the SAME mode.
    ScopedBatchedExecution on(true);
    const std::vector<Tensor> fused =
        RunGraph(true, leaves, [](const std::vector<Var>& l) {
          return AddRelu(l[0], l[1]);
        });
    const std::vector<Tensor> composite =
        RunGraph(true, leaves, [](const std::vector<Var>& l) {
          return Relu(Add(l[0], l[1]));
        });
    for (size_t i = 0; i < fused.size(); ++i) {
      ExpectBitEqual(fused[i], composite[i], "AddRelu vs Relu(Add)");
    }
  }
  // Suffix broadcast (bias add -> relu).
  {
    std::vector<Var> leaves = {
        Var(Tensor::Randn({3, 5, 8}, &rng), /*requires_grad=*/true),
        Var(Tensor::Randn({8}, &rng), /*requires_grad=*/true)};
    ExpectModesBitIdenticalEverywhere(leaves, [](const std::vector<Var>& l) {
      return AddRelu(l[0], l[1]);
    });
  }
}

TEST(BatchedOpsTest, L2NormalizeFusedVsCompositeBitIdentical) {
  Rng rng(24);
  struct RowShape {
    int64_t rows, n;
  };
  const std::vector<RowShape> shapes = {{1, 1}, {4, 16}, {9, 33}};
  for (const auto& [rows, n] : shapes) {
    std::vector<Var> leaves = {
        Var(Tensor::Randn({rows, n}, &rng), /*requires_grad=*/true)};
    ExpectModesBitIdenticalEverywhere(leaves, [](const std::vector<Var>& l) {
      return L2NormalizeLastDim(l[0]);
    });
  }
}

TEST(BatchedOpsTest, LinearForwardReluMatchesComposite) {
  Rng rng(25);
  Linear linear(6, 4, &rng);
  const Var x(Tensor::Randn({3, 5, 6}, &rng), /*requires_grad=*/true);
  for (const bool batched : {false, true}) {
    ScopedBatchedExecution mode(batched);
    x.ZeroGrad();
    linear.ZeroGrad();
    Var fused = linear.ForwardRelu(x);
    WeightedSum(fused).Backward();
    const Tensor fused_value = fused.value();
    const Tensor fused_gx = x.grad();
    x.ZeroGrad();
    linear.ZeroGrad();
    Var composite = Relu(linear.Forward(x));
    WeightedSum(composite).Backward();
    ExpectBitEqual(fused_value, composite.value(), "ForwardRelu value");
    ExpectBitEqual(fused_gx, x.grad(), "ForwardRelu input grad");
  }
}

TEST(BatchedOpsTest, SuffixBroadcastBinaryOpsStillCorrect) {
  // Pins the modulo-free nested-loop broadcast rewrite (the old
  // `pb[i % inner]` path) across all four binary ops.
  Rng rng(26);
  const Tensor a3 = Tensor::Randn({2, 3, 4}, &rng);
  Tensor b1 = Tensor::Uniform({4}, 0.5f, 2.0f, &rng);  // nonzero for Div
  const Var av(a3, /*requires_grad=*/true);
  const Var bv(b1, /*requires_grad=*/true);
  using Builder = Var (*)(const Var&, const Var&);
  for (Builder op : {static_cast<Builder>(&Add), static_cast<Builder>(&Sub),
                     static_cast<Builder>(&Mul), static_cast<Builder>(&Div)}) {
    av.ZeroGrad();
    bv.ZeroGrad();
    Var out = op(av, bv);
    for (int64_t o = 0; o < 6; ++o) {
      for (int64_t i = 0; i < 4; ++i) {
        const float x = a3[o * 4 + i];
        const float y = b1[i];
        float want = 0.0f;
        if (op == &Add) want = x + y;
        if (op == &Sub) want = x - y;
        if (op == &Mul) want = x * y;
        if (op == &Div) want = x / y;
        EXPECT_EQ(out.value()[o * 4 + i], want);
      }
    }
    WeightedSum(out).Backward();
    EXPECT_TRUE(av.has_grad());
    EXPECT_TRUE(bv.has_grad());
  }
}

// ---------- grad checks ----------

TEST(BatchedGradCheckTest, BatchedConv1dAcrossEncoderShapes) {
  Rng rng(31);
  ScopedBatchedExecution on(true);
  // Encoder-like shapes: K=3 dilated stacks over 1- and 3-channel inputs
  // (temporal/residual and frequency domains) plus a wider block.
  struct GcShape {
    int64_t B, Cin, Cout, dilation;
  };
  const std::vector<GcShape> shapes = {
      {2, 1, 4, 1}, {2, 3, 4, 2}, {3, 4, 4, 4}, {2, 8, 8, 2}};
  for (const auto& [B, Cin, Cout, dilation] : shapes) {
    const int64_t K = 3, L = 16;
    const int64_t span = dilation * (K - 1);
    std::vector<Var> leaves = {
        Var(Tensor::Randn({B, Cin, L}, &rng), /*requires_grad=*/true),
        Var(Tensor::Uniform({Cout, Cin, K}, -0.5f, 0.5f, &rng),
            /*requires_grad=*/true),
        Var(Tensor::Uniform({Cout}, -0.1f, 0.1f, &rng),
            /*requires_grad=*/true)};
    const int64_t pl = span / 2, pr = span - span / 2;
    const auto fn = [=](const std::vector<Var>& l) {
      // Tanh keeps the check away from the relu kink while still pushing
      // gradients through the conv.
      return GradCheckLoss(Tanh(Conv1d(l[0], l[1], l[2], dilation, pl, pr)));
    };
    EXPECT_LT(MaxGradError(fn, leaves, /*step=*/1e-2, /*tol=*/1e-3), 6e-2)
        << "B=" << B << " Cin=" << Cin << " dilation=" << dilation;
  }
}

TEST(BatchedGradCheckTest, FusedChains) {
  Rng rng(32);
  ScopedBatchedExecution on(true);
  // Residual add -> relu (fused), offset so the kink is far from 0.
  {
    std::vector<Var> leaves = {
        Var(Tensor::Uniform({3, 4, 8}, 0.5f, 1.5f, &rng),
            /*requires_grad=*/true),
        Var(Tensor::Uniform({3, 4, 8}, 0.5f, 1.5f, &rng),
            /*requires_grad=*/true)};
    const auto fn = [](const std::vector<Var>& l) {
      return GradCheckLoss(AddRelu(l[0], l[1]));
    };
    EXPECT_LT(MaxGradError(fn, leaves), 4e-2);
  }
  // Bias add -> relu (fused suffix broadcast).
  {
    std::vector<Var> leaves = {
        Var(Tensor::Uniform({4, 6}, 0.5f, 1.5f, &rng),
            /*requires_grad=*/true),
        Var(Tensor::Uniform({6}, 0.25f, 0.75f, &rng),
            /*requires_grad=*/true)};
    const auto fn = [](const std::vector<Var>& l) {
      return GradCheckLoss(AddRelu(l[0], l[1]));
    };
    EXPECT_LT(MaxGradError(fn, leaves), 4e-2);
  }
  // L2 normalize (fused), away from the zero-norm singularity.
  {
    std::vector<Var> leaves = {
        Var(Tensor::Uniform({5, 12}, 0.5f, 2.0f, &rng),
            /*requires_grad=*/true)};
    const auto fn = [](const std::vector<Var>& l) {
      return GradCheckLoss(L2NormalizeLastDim(l[0]));
    };
    EXPECT_LT(MaxGradError(fn, leaves, /*step=*/1e-2, /*tol=*/1e-3), 6e-2);
  }
  // The full projection-head tail: matmul -> bias relu -> normalize.
  // Positive inputs/weights keep every pre-activation > 0.1, so no element
  // crosses the relu kink within the finite-difference step (mixed-sign
  // kink coverage is the AddRelu sub-cases above).
  {
    Rng wrng(33);
    std::vector<Var> leaves = {
        Var(Tensor::Uniform({2, 5, 6}, 0.2f, 1.0f, &wrng),
            /*requires_grad=*/true),
        Var(Tensor::Uniform({6, 4}, 0.1f, 0.4f, &wrng),
            /*requires_grad=*/true),
        Var(Tensor::Uniform({4}, 0.1f, 0.3f, &wrng), /*requires_grad=*/true)};
    const auto fn = [](const std::vector<Var>& l) {
      Var h = AddRelu(MatMul(l[0], l[1]), l[2]);
      return GradCheckLoss(L2NormalizeLastDim(AddScalar(h, 0.2f)));
    };
    EXPECT_LT(MaxGradError(fn, leaves, /*step=*/1e-2, /*tol=*/1e-3), 8e-2);
  }
}

}  // namespace
}  // namespace triad::nn
