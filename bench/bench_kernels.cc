// SIMD kernel layer throughput: every dispatched kernel measured at the
// scalar tier and at the best tier the host supports (see
// ARCHITECTURE.md §4). The argument is the simd::Level; per-element
// workloads use sizes taken from the real call sites — the encoder's
// conv shapes, MASS/STOMP profile rows at bench scale, and the similarity
// scan's unit-vector dots.
//
// Acceptance target (ISSUE): >= 2x on the dot and conv kernels with AVX2.
// Example on an AVX2 host: BM_Dot 4096 floats 3.3x, BM_Conv1dForward
// encoder shape 3.0x, BM_ZNormDistRow 2.6x (CPU time, single lane).
//
// Determinism note: these benches measure speed only — the equivalence
// guarantees (bit-identity for elementwise kernels, <= 4 ULP for
// reductions) are asserted in tests/kernel_equivalence_test.cc.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/detector.h"
#include "data/ucr_generator.h"
#include "nn/kernels.h"

namespace triad::bench {
namespace {

// Skips the benchmark when asked for a tier the host cannot run.
bool SetLevelOrSkip(benchmark::State& state, simd::Level* level) {
  *level = static_cast<simd::Level>(state.range(0));
  if (*level > simd::HighestSupportedLevel()) {
    state.SkipWithError("SIMD level not supported on this host");
    return false;
  }
  state.SetLabel(simd::LevelName(*level));
  return true;
}

std::vector<float> RandomFloats(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(static_cast<size_t>(n));
  for (auto& v : x) v = static_cast<float>(rng.Normal(0.0, 1.0));
  return x;
}

std::vector<double> RandomDoubles(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(n));
  for (auto& v : x) v = rng.Normal(0.0, 1.0);
  return x;
}

// Dot product at the similarity-scan length (windows are ~160-sample unit
// vectors at bench scale; 4096 shows the long-vector regime).
void BM_Dot(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = state.range(1);
  const std::vector<float> a = RandomFloats(n, 1);
  const std::vector<float> b = RandomFloats(n, 2);
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dot)
    ->ArgsProduct({{0, 1}, {160, 4096}})
    ->Unit(benchmark::kNanosecond);

// Axpy at a conv row length (the inner op of conv forward / backward-input
// and of the dense matmul).
void BM_Axpy(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = state.range(1);
  const std::vector<float> x = RandomFloats(n, 3);
  std::vector<float> y = RandomFloats(n, 4);
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    simd::Axpy(1.0009f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Axpy)
    ->ArgsProduct({{0, 1}, {160, 4096}})
    ->Unit(benchmark::kNanosecond);

void BM_Relu(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = 4096;
  const std::vector<float> x = RandomFloats(n, 5);
  std::vector<float> y(static_cast<size_t>(n));
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    simd::Relu(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Relu)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

// Conv1d forward at the exact encoder shape: batch 8, 32 -> 32 channels,
// K=3, L=160 (2.5 periods at bench scale), dilation 4.
void BM_Conv1dForward(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t B = 8, Cin = 32, Cout = 32, K = 3, dilation = 4;
  const int64_t Lout = 160, Lpad = Lout + dilation * (K - 1);
  const std::vector<float> xpad = RandomFloats(B * Cin * Lpad, 6);
  const std::vector<float> w = RandomFloats(Cout * Cin * K, 7);
  std::vector<float> out(static_cast<size_t>(B * Cout * Lout));
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    nn::kernels::Conv1dForward(xpad.data(), w.data(), out.data(), B, Cin,
                               Cout, K, Lpad, Lout, dilation);
    benchmark::DoNotOptimize(out.data());
  }
  // MACs per conv: B * Cout * Cin * K * Lout.
  state.SetItemsProcessed(state.iterations() * B * Cout * Cin * K * Lout);
}
BENCHMARK(BM_Conv1dForward)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Weight gradient (dot-reduction kernel) at the same encoder shape.
void BM_Conv1dBackwardWeight(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t B = 8, Cin = 32, Cout = 32, K = 3, dilation = 4;
  const int64_t Lout = 160, Lpad = Lout + dilation * (K - 1);
  const std::vector<float> xpad = RandomFloats(B * Cin * Lpad, 8);
  const std::vector<float> g = RandomFloats(B * Cout * Lout, 9);
  std::vector<float> gw(static_cast<size_t>(Cout * Cin * K));
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    std::fill(gw.begin(), gw.end(), 0.0f);
    nn::kernels::Conv1dBackwardWeight(g.data(), xpad.data(), gw.data(), B,
                                      Cin, Cout, K, Lpad, Lout, dilation);
    benchmark::DoNotOptimize(gw.data());
  }
  state.SetItemsProcessed(state.iterations() * B * Cout * Cin * K * Lout);
}
BENCHMARK(BM_Conv1dBackwardWeight)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// The projection-head matmul gradient path (C += A B^T row dots).
void BM_GemmTransB(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t m = 8, n = 160, k = 32;
  const std::vector<float> a = RandomFloats(m * n, 10);
  const std::vector<float> b = RandomFloats(k * n, 11);
  std::vector<float> c(static_cast<size_t>(m * k));
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    nn::kernels::GemmTransB(a.data(), b.data(), c.data(), m, n, k);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_GemmTransB)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// STOMP's per-row O(n) update at a 16k-series profile width.
void BM_SlidingDotUpdate(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = 16384 - 64 + 1;
  const std::vector<double> series = RandomDoubles(16384, 12);
  std::vector<double> qt = RandomDoubles(n, 13);
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    simd::SlidingDotUpdate(qt.data(), n, series[0], series.data(), series[64],
                           series.data() + 64);
    benchmark::DoNotOptimize(qt.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SlidingDotUpdate)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// MASS/STOMP dot -> z-normalized distance conversion at the same width.
void BM_ZNormDistRow(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = 16384 - 64 + 1, m = 64;
  const std::vector<double> dot = RandomDoubles(n, 14);
  std::vector<double> mu = RandomDoubles(n, 15);
  std::vector<double> sd(static_cast<size_t>(n), 1.25);
  std::vector<double> out(static_cast<size_t>(n));
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    simd::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.1, 0.9, m,
                       out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ZNormDistRow)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The all-lengths discord sweep's two row kernels, at a long_period-sized
// row (1350-point region, m = 4).
void BM_DiagonalDotUpdate(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = 1343;
  const std::vector<double> series = RandomDoubles(n + 8, 16);
  std::vector<double> q = RandomDoubles(n, 17);
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    simd::DiagonalDotUpdate(q.data(), n, series[0], series.data(), series[3],
                            series.data() + 3);
    benchmark::DoNotOptimize(q.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DiagonalDotUpdate)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

void BM_SweepCorrRow(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = 1343;
  const std::vector<double> q = RandomDoubles(n, 18);
  const std::vector<double> mu = RandomDoubles(n, 19);
  const std::vector<double> inv_sd(static_cast<size_t>(n), 0.8);
  const std::vector<double> penalty(static_cast<size_t>(n), 0.0);
  std::vector<double> best(static_cast<size_t>(n), -1.0);
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::SweepCorrRow(
        q.data(), mu.data(), inv_sd.data(), penalty.data(), 0.2, 1.1, 0.25,
        best.data(), n));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SweepCorrRow)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

// ---------- float32 inference tier (ARCHITECTURE.md §12) ----------
// A/B comparators for the f64 kernels above: same shapes, same access
// pattern, single-precision lanes. Acceptance target (ISSUE): >= 1.5x over
// the f64 AVX2 rows on DotF32 / ZNormDistRowF32.

void BM_DotF32(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = state.range(1);
  const std::vector<float> a = RandomFloats(n, 1);
  const std::vector<float> b = RandomFloats(n, 2);
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::DotF32(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotF32)
    ->ArgsProduct({{0, 1}, {160, 4096}})
    ->Unit(benchmark::kNanosecond);

void BM_SlidingDotUpdateF32(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = 16384 - 64 + 1;
  const std::vector<float> series = RandomFloats(16384, 12);
  std::vector<float> qt = RandomFloats(n, 13);
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    simd::SlidingDotUpdateF32(qt.data(), n, series[0], series.data(),
                              series[64], series.data() + 64);
    benchmark::DoNotOptimize(qt.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SlidingDotUpdateF32)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_ZNormDistRowF32(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  const int64_t n = 16384 - 64 + 1, m = 64;
  const std::vector<float> dot = RandomFloats(n, 14);
  const std::vector<float> mu = RandomFloats(n, 15);
  const std::vector<float> sd(static_cast<size_t>(n), 1.25f);
  std::vector<float> out(static_cast<size_t>(n));
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    simd::ZNormDistRowF32(dot.data(), mu.data(), sd.data(), 0.1f, 0.9f, m,
                          out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ZNormDistRowF32)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// End to end: full train + detect on a generated dataset, per tier. This
// is the number bench/README.md records as the kernel layer's bottom-line
// effect (training is conv/matmul bound; detection adds the similarity
// scan and the discord search).
void BM_TrainDetectEndToEnd(benchmark::State& state) {
  simd::Level level;
  if (!SetLevelOrSkip(state, &level)) return;
  data::UcrGeneratorOptions gen;
  gen.count = 1;
  gen.seed = 54;
  gen.min_period = 32;
  gen.max_period = 40;
  gen.min_train_periods = 14;
  gen.max_train_periods = 16;
  gen.min_test_periods = 10;
  gen.max_test_periods = 12;
  gen.severity = 1.0;
  Rng rng(gen.seed);
  const data::UcrDataset ds = data::MakeUcrDataset(
      gen, 0, data::AnomalyType::kSeasonal, "sine", &rng);
  core::TriadConfig config;
  config.depth = 4;
  config.hidden_dim = 32;
  config.epochs = 4;
  config.seed = 17;
  config.merlin_length_step = 4;
  simd::ScopedForceLevel force(level);
  for (auto _ : state) {
    core::TriadDetector detector(config);
    TRIAD_CHECK(detector.Fit(ds.train).ok());
    auto result = detector.Detect(ds.test);
    TRIAD_CHECK(result.ok());
    benchmark::DoNotOptimize(result->votes);
  }
}
BENCHMARK(BM_TrainDetectEndToEnd)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// --json mode: one fixed-size pass over the kernel hot paths plus the full
// train+detect pipeline, recorded through the observability layer and
// emitted as BENCH_kernels.json (schema in bench/README.md) — the record
// CI validates and the perf trajectory tracks PR-over-PR. Fixed iteration
// counts instead of google-benchmark's adaptive timing keep the record
// cheap and the workload identical across runs.
int RunJsonMode() {
  metrics::ScopedEnable enable(true);
  metrics::Registry::Global().ResetAll();
  trace::TraceBuffer::Global().Clear();
  Timer wall;

  {
    trace::TraceSpan span("kernel.dot");
    const int64_t n = 4096;
    const std::vector<float> a = RandomFloats(n, 1);
    const std::vector<float> b = RandomFloats(n, 2);
    for (int iter = 0; iter < 2000; ++iter) {
      benchmark::DoNotOptimize(simd::Dot(a.data(), b.data(), n));
    }
  }
  {
    trace::TraceSpan span("kernel.conv1d_forward");
    const int64_t B = 8, Cin = 32, Cout = 32, K = 3, dilation = 4;
    const int64_t Lout = 160, Lpad = Lout + dilation * (K - 1);
    const std::vector<float> xpad = RandomFloats(B * Cin * Lpad, 6);
    const std::vector<float> w = RandomFloats(Cout * Cin * K, 7);
    std::vector<float> out(static_cast<size_t>(B * Cout * Lout));
    for (int iter = 0; iter < 50; ++iter) {
      std::fill(out.begin(), out.end(), 0.0f);
      nn::kernels::Conv1dForward(xpad.data(), w.data(), out.data(), B, Cin,
                                 Cout, K, Lpad, Lout, dilation);
      benchmark::DoNotOptimize(out.data());
    }
  }
  {
    trace::TraceSpan span("kernel.znorm_dist_row");
    const int64_t n = 16384 - 64 + 1, m = 64;
    const std::vector<double> dot = RandomDoubles(n, 14);
    const std::vector<double> mu = RandomDoubles(n, 15);
    const std::vector<double> sd(static_cast<size_t>(n), 1.25);
    std::vector<double> out(static_cast<size_t>(n));
    for (int iter = 0; iter < 200; ++iter) {
      simd::ZNormDistRow(dot.data(), mu.data(), sd.data(), 0.1, 0.9, m,
                         out.data(), n);
      benchmark::DoNotOptimize(out.data());
    }
  }

  // f64-vs-f32 A/B cohorts (ARCHITECTURE.md §12). Same shapes as the
  // spans above, timed directly so the record carries both tiers' seconds
  // plus the derived speedup the ISSUE gate (>= 1.5x) reads.
  double dot_f64_seconds, dot_f32_seconds;
  {
    const int64_t n = 4096;
    const int kIters = 20000;
    const std::vector<float> a = RandomFloats(n, 1);
    const std::vector<float> b = RandomFloats(n, 2);
    Timer t64;
    for (int iter = 0; iter < kIters; ++iter) {
      benchmark::DoNotOptimize(simd::Dot(a.data(), b.data(), n));
    }
    dot_f64_seconds = t64.ElapsedSeconds();
    Timer t32;
    for (int iter = 0; iter < kIters; ++iter) {
      benchmark::DoNotOptimize(simd::DotF32(a.data(), b.data(), n));
    }
    dot_f32_seconds = t32.ElapsedSeconds();
  }
  double znorm_f64_seconds, znorm_f32_seconds;
  {
    const int64_t n = 16384 - 64 + 1, m = 64;
    const int kIters = 1000;
    const std::vector<double> dot64 = RandomDoubles(n, 14);
    const std::vector<double> mu64 = RandomDoubles(n, 15);
    const std::vector<double> sd64(static_cast<size_t>(n), 1.25);
    std::vector<double> out64(static_cast<size_t>(n));
    Timer t64;
    for (int iter = 0; iter < kIters; ++iter) {
      simd::ZNormDistRow(dot64.data(), mu64.data(), sd64.data(), 0.1, 0.9, m,
                         out64.data(), n);
      benchmark::DoNotOptimize(out64.data());
    }
    znorm_f64_seconds = t64.ElapsedSeconds();
    const std::vector<float> dot32 = RandomFloats(n, 14);
    const std::vector<float> mu32 = RandomFloats(n, 15);
    const std::vector<float> sd32(static_cast<size_t>(n), 1.25f);
    std::vector<float> out32(static_cast<size_t>(n));
    Timer t32;
    for (int iter = 0; iter < kIters; ++iter) {
      simd::ZNormDistRowF32(dot32.data(), mu32.data(), sd32.data(), 0.1f,
                            0.9f, m, out32.data(), n);
      benchmark::DoNotOptimize(out32.data());
    }
    znorm_f32_seconds = t32.ElapsedSeconds();
  }

  // End-to-end pipeline pass (same workload as BM_TrainDetectEndToEnd);
  // this populates the detector/trainer/merlin spans and the mass/stomp/
  // parallel instruments.
  double train_detect_seconds;
  {
    trace::TraceSpan span("bench.train_detect");
    data::UcrGeneratorOptions gen;
    gen.count = 1;
    gen.seed = 54;
    gen.min_period = 32;
    gen.max_period = 40;
    gen.min_train_periods = 14;
    gen.max_train_periods = 16;
    gen.min_test_periods = 10;
    gen.max_test_periods = 12;
    gen.severity = 1.0;
    Rng rng(gen.seed);
    const data::UcrDataset ds = data::MakeUcrDataset(
        gen, 0, data::AnomalyType::kSeasonal, "sine", &rng);
    core::TriadConfig config;
    config.depth = 4;
    config.hidden_dim = 32;
    config.epochs = 4;
    config.seed = 17;
    config.merlin_length_step = 4;
    core::TriadDetector detector(config);
    TRIAD_CHECK(detector.Fit(ds.train).ok());
    auto result = detector.Detect(ds.test);
    TRIAD_CHECK(result.ok());
    benchmark::DoNotOptimize(result->votes);
    train_detect_seconds = span.Stop();
  }

  WriteBenchJson(
      "kernels", wall.ElapsedSeconds(),
      {{"train_detect_seconds", train_detect_seconds},
       {"precision_f32", 1.0},  // record carries an f32 cohort (§12)
       {"dot_f64_seconds", dot_f64_seconds},
       {"dot_f32_seconds", dot_f32_seconds},
       {"dot_f32_speedup", dot_f64_seconds / dot_f32_seconds},
       {"znorm_dist_row_f64_seconds", znorm_f64_seconds},
       {"znorm_dist_row_f32_seconds", znorm_f32_seconds},
       {"znorm_dist_row_f32_speedup", znorm_f64_seconds / znorm_f32_seconds}});
  return 0;
}

}  // namespace
}  // namespace triad::bench

// google-benchmark's BENCHMARK_MAIN rejects flags it does not know, so the
// --json mode is dispatched before benchmark::Initialize ever sees argv.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--json")) {
      return triad::bench::RunJsonMode();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
