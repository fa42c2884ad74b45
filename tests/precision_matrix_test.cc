// Knob-composition matrix for the float32 inference tier (ARCHITECTURE.md
// §12): TRIAD_PRECISION must compose with TRIAD_SIMD and TRIAD_NN_BATCHED
// without surprises. The in-process equivalents of those env knobs
// (ScopedForcePrecision, ScopedForceLevel, ScopedBatchedExecution) let one
// binary walk the whole matrix:
//
//  * f32 under the scalar SIMD tier falls back cleanly — same verdicts and
//    envelope-close scores as the vector tier, no silent f64 re-entry;
//  * training is UNREACHABLE from the precision knob: every nn forward
//    value and gradient is bit-identical across all eight
//    {precision} x {simd tier} x {batched} combinations;
//  * the NN execution knob has no effect on the discord path and the
//    precision knob has no effect on the NN path (knob isolation).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "discord/stomp.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "nn/variable.h"

namespace triad {
namespace {

bool BestTierIsVector() {
  return simd::HighestSupportedLevel() != simd::Level::kScalar;
}

std::vector<double> RandomWalk(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(n));
  double level = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    level += rng.Normal(0.0, 1.0);
    x[static_cast<size_t>(i)] = level + 4.0 * std::sin(0.12 * i);
  }
  return x;
}

// ---------- f32 x SIMD tier ----------

// The batch f32 matrix profile is built from level-independent FFT seeds
// plus the bit-identical-across-tiers f32 elementwise kernels
// (SlidingDotUpdateF32 / ZNormDistRowF32), so forcing the scalar tier must
// reproduce the vector tier's profile BIT-exactly — the strongest form of
// "falls back cleanly".
TEST(PrecisionMatrixTest, BatchF32IdenticalAcrossSimdTiers) {
  if (!BestTierIsVector()) GTEST_SKIP() << "host has no vector tier";
  const std::vector<double> x = RandomWalk(900, 31);
  const int64_t m = 48;

  std::vector<double> scalar_d, vector_d;
  {
    simd::ScopedForceLevel force(simd::Level::kScalar);
    auto p = discord::Stomp(x, m, simd::Precision::kF32);
    ASSERT_TRUE(p.ok());
    scalar_d = p->distances;
  }
  {
    simd::ScopedForceLevel force(simd::HighestSupportedLevel());
    auto p = discord::Stomp(x, m, simd::Precision::kF32);
    ASSERT_TRUE(p.ok());
    vector_d = p->distances;
  }
  ASSERT_EQ(scalar_d.size(), vector_d.size());
  for (size_t i = 0; i < scalar_d.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(scalar_d[i]),
              std::bit_cast<uint64_t>(vector_d[i]))
        << "i=" << i;
  }
}

// ---------- precision x NN execution ----------

// Builds a representative training step (conv -> fused add+relu -> matmul
// -> normalize), backprops, and returns {forward, leaf grads}. Training
// tensors are nn float32 by design; the §12 knob only switches the
// double-pipeline inference kernels, so this whole graph must be
// oblivious to it.
std::vector<nn::Tensor> RunTrainingStep(const std::vector<nn::Var>& leaves) {
  for (const auto& l : leaves) l.ZeroGrad();
  const nn::Var& x = leaves[0];
  const nn::Var& w = leaves[1];
  const nn::Var& b = leaves[2];
  const nn::Var& proj = leaves[3];
  nn::Var conv = nn::Conv1d(x, w, b, /*dilation=*/2, /*pad_left=*/4,
                            /*pad_right=*/0);
  nn::Var act = nn::AddRelu(conv, conv);
  const auto& s = act.shape();  // [B, Cout, Lout]
  nn::Var flat = nn::Reshape(act, {s[0], s[1] * s[2]});
  nn::Var out = nn::L2NormalizeLastDim(nn::MatMul(flat, proj));
  nn::SumAll(nn::Square(out)).Backward();
  std::vector<nn::Tensor> result = {out.value()};
  for (const auto& l : leaves) result.push_back(l.grad());
  return result;
}

TEST(PrecisionMatrixTest, TrainingIsBitIdenticalAcrossWholeKnobMatrix) {
  Rng rng(55);
  const int64_t B = 3, Cin = 2, Cout = 4, K = 3, L = 24;
  const int64_t Lout = L;  // Conv1d pads causally; length is preserved
  std::vector<nn::Var> leaves = {
      nn::Var(nn::Tensor::Randn({B, Cin, L}, &rng), /*requires_grad=*/true),
      nn::Var(nn::Tensor::Randn({Cout, Cin, K}, &rng),
              /*requires_grad=*/true),
      nn::Var(nn::Tensor::Randn({Cout}, &rng), /*requires_grad=*/true),
      nn::Var(nn::Tensor::Randn({Cout * Lout, 6}, &rng),
              /*requires_grad=*/true)};

  std::vector<nn::Tensor> reference;  // f64 / scalar / batched-off
  {
    simd::ScopedForcePrecision precision(simd::Precision::kF64);
    simd::ScopedForceLevel level(simd::Level::kScalar);
    nn::ScopedBatchedExecution batched(false);
    reference = RunTrainingStep(leaves);
  }

  for (const simd::Precision precision :
       {simd::Precision::kF64, simd::Precision::kF32}) {
    for (const bool vector_tier : {false, true}) {
      if (vector_tier && !BestTierIsVector()) continue;
      for (const bool batched : {false, true}) {
        simd::ScopedForcePrecision force_precision(precision);
        simd::ScopedForceLevel force_level(
            vector_tier ? simd::HighestSupportedLevel()
                        : simd::Level::kScalar);
        nn::ScopedBatchedExecution force_batched(batched);
        const std::vector<nn::Tensor> got = RunTrainingStep(leaves);
        SCOPED_TRACE(std::string(simd::PrecisionName(precision)) + "/" +
                     (vector_tier ? "vector" : "scalar") + "/" +
                     (batched ? "batched" : "serial"));
        ASSERT_EQ(got.size(), reference.size());
        for (size_t t = 0; t < reference.size(); ++t) {
          ASSERT_EQ(got[t].shape(), reference[t].shape());
          for (int64_t i = 0; i < reference[t].size(); ++i) {
            ASSERT_EQ(std::bit_cast<uint32_t>(got[t][i]),
                      std::bit_cast<uint32_t>(reference[t][i]))
                << "tensor " << t << " flat index " << i;
          }
        }
      }
    }
  }
}

// Flip side of the isolation contract: the NN execution knob must not
// reach into the discord path. The f32 matrix profile is bit-identical
// whether the batched NN kernels are on or off.
TEST(PrecisionMatrixTest, NnBatchedKnobDoesNotTouchF32DiscordPath) {
  const std::vector<double> x = RandomWalk(600, 35);
  const int64_t m = 40;
  auto run = [&](bool batched) {
    nn::ScopedBatchedExecution force(batched);
    auto p = discord::Stomp(x, m, simd::Precision::kF32);
    EXPECT_TRUE(p.ok());
    return p->distances;
  };
  const std::vector<double> on = run(true);
  const std::vector<double> off = run(false);
  ASSERT_EQ(on.size(), off.size());
  for (size_t i = 0; i < on.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(on[i]), std::bit_cast<uint64_t>(off[i]))
        << "i=" << i;
  }
}

}  // namespace
}  // namespace triad
