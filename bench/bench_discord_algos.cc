// Design-choice ablations for the discord substrate (DESIGN.md §4):
// MASS (FFT) versus naive distance profiles, DRAG phase-2 linear scan
// versus the Orchard-ordered scan that powers MERLIN++, and MERLIN versus
// the all-lengths sweep on TriAD's restricted region.

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/trace.h"
#include "discord/discord.h"
#include "discord/mass.h"
#include "discord/stomp.h"
#include "signal/fft_plan.h"

namespace triad::discord {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<double> Workload(size_t n, uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / 50.0) +
           rng.Normal(0.0, 0.05);
  }
  // Planted anomaly in the middle.
  for (size_t t = n / 2; t < n / 2 + 50 && t < n; ++t) {
    x[t] = std::sin(4.0 * kPi * static_cast<double>(t) / 50.0) +
           rng.Normal(0.0, 0.05);
  }
  return x;
}

void BM_MassDistanceProfile(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  const std::vector<double> query(x.begin(), x.begin() + 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MassDistanceProfile(x, query));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MassDistanceProfile)->Arg(1000)->Arg(2000)->Arg(4000)->Arg(8000)
    ->Complexity(benchmark::oNLogN);

void BM_NaiveDistanceProfile(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  const int64_t m = 100;
  const RollingStats stats = ComputeRollingStats(x, m);
  for (auto _ : state) {
    std::vector<double> profile;
    const int64_t count = static_cast<int64_t>(x.size()) - m + 1;
    profile.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      profile.push_back(ZNormDistanceEarlyAbandon(
          x.data(), stats.mean[0], stats.stddev[0], x.data() + i,
          stats.mean[static_cast<size_t>(i)],
          stats.stddev[static_cast<size_t>(i)], m, 1e18));
    }
    benchmark::DoNotOptimize(profile);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaiveDistanceProfile)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Complexity(benchmark::oNSquared);

void BM_BruteForceDiscord(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BruteForceDiscord(x, 50));
  }
}
BENCHMARK(BM_BruteForceDiscord)->Arg(1000)->Arg(2000);

void BM_StompMatrixProfile(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Stomp(x, 50));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StompMatrixProfile)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Complexity(benchmark::oNSquared);

// Same workload on the float32 inference tier (ARCHITECTURE.md §12): the
// distance rows run ZNormDistRowF32/SlidingDotUpdateF32 at twice the SIMD
// lane width; the FFT seeds stay double.
void BM_StompMatrixProfileF32(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Stomp(x, 50, simd::Precision::kF32));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StompMatrixProfileF32)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Complexity(benchmark::oNSquared);

void BM_Merlin(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Merlin(x, 40, 60, 5));
  }
}
BENCHMARK(BM_Merlin)->Arg(1000)->Arg(2000)->Arg(4000);

void BM_MerlinPlusPlus(benchmark::State& state) {
  const std::vector<double> x = Workload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerlinPlusPlus(x, 40, 60, 5));
  }
}
BENCHMARK(BM_MerlinPlusPlus)->Arg(1000)->Arg(2000)->Arg(4000);

// The TriAD regime: discord search restricted to a ~3-window region.
void BM_MerlinRestrictedRegion(benchmark::State& state) {
  const std::vector<double> x = Workload(8000);
  const std::vector<double> region(x.begin() + 3800, x.begin() + 4300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Merlin(region, 10, 120, 2));
  }
}
BENCHMARK(BM_MerlinRestrictedRegion);

// The same region through the all-lengths sweep the detector runs
// (identical discord distances; ARCHITECTURE.md §7).
void BM_SweepRestrictedRegion(benchmark::State& state) {
  const std::vector<double> x = Workload(8000);
  const std::vector<double> region(x.begin() + 3800, x.begin() + 4300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SweepDiscords(region, 10, 120, 2));
  }
}
BENCHMARK(BM_SweepRestrictedRegion);

// A noisier series (sigma 0.1) with the anomaly sliced out: with no true
// discord present, nearest-neighbour distances bunch together, the range
// ladder descends further, and DRAG's phases do real pruning work. This is
// the adversarial end of the sweep — the clean sine above is nearly free
// by comparison — and the workload where the amortization stack (FFT plan
// cache, series-spectrum reuse, reference-index pruning; ARCHITECTURE.md
// §7) is measured end to end.
std::vector<double> NoisySweepSeries() {
  Rng rng(3);
  std::vector<double> x(8000);
  for (size_t t = 0; t < x.size(); ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / 50.0) +
           rng.Normal(0.0, 0.1);
  }
  return std::vector<double>(x.begin(), x.begin() + 4000);
}

void BM_MerlinNoisySweep(benchmark::State& state) {
  const std::vector<double> x = NoisySweepSeries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Merlin(x, 40, 60, 5));
  }
}
BENCHMARK(BM_MerlinNoisySweep)->Unit(benchmark::kMillisecond);

// --json mode: the plan-cache A/B experiment (ARCHITECTURE.md §7) as a
// machine-readable record. Each workload runs once with TRIAD_FFT_PLAN
// forced off (the reference from-scratch FFT/MASS paths) and once with the
// plan cache on, under the observability layer, and the off/on wall times,
// speedups, and cache hit/miss counters land in BENCH_discord.json
// (schema triad-observability-v1; see bench/README.md). Fixed iteration
// counts keep the record cheap and the workload identical across runs.
int RunJsonMode() {
  metrics::ScopedEnable enable(true);
  metrics::Registry::Global().ResetAll();
  trace::TraceBuffer::Global().Clear();
  Timer wall;

  const std::vector<double> x8k = Workload(8000);
  const std::vector<double> query(x8k.begin(), x8k.begin() + 100);
  const std::vector<double> x4k = NoisySweepSeries();
  constexpr int kMassIters = 100;
  constexpr int kMerlinIters = 1;

  // MASS distance profiles against a fixed 8k series: with the cache off
  // every call re-plans and re-transforms the series; with it on the plan
  // tables and the series spectrum are built once and reused.
  double mass_off, mass_on;
  {
    signal::ScopedPlanCache plan(false);
    trace::TraceSpan span("bench.mass_profile_plan_off");
    for (int iter = 0; iter < kMassIters; ++iter) {
      benchmark::DoNotOptimize(MassDistanceProfile(x8k, query));
    }
    mass_off = span.Stop();
  }
  {
    signal::ScopedPlanCache plan(true);
    trace::TraceSpan span("bench.mass_profile_plan_on");
    for (int iter = 0; iter < kMassIters; ++iter) {
      benchmark::DoNotOptimize(MassDistanceProfile(x8k, query));
    }
    mass_on = span.Stop();
  }

  // The MERLIN length sweep (the detector's discord workload): every
  // length's profiles hit the same per-series spectrum and the same
  // per-padded-size plans.
  double merlin_off, merlin_on;
  {
    signal::ScopedPlanCache plan(false);
    trace::TraceSpan span("bench.merlin_sweep_plan_off");
    for (int iter = 0; iter < kMerlinIters; ++iter) {
      auto result = Merlin(x4k, 40, 60, 5);
      TRIAD_CHECK(result.ok());
      benchmark::DoNotOptimize(result->discords);
    }
    merlin_off = span.Stop();
  }
  {
    signal::ScopedPlanCache plan(true);
    trace::TraceSpan span("bench.merlin_sweep_plan_on");
    for (int iter = 0; iter < kMerlinIters; ++iter) {
      auto result = Merlin(x4k, 40, 60, 5);
      TRIAD_CHECK(result.ok());
      benchmark::DoNotOptimize(result->discords);
    }
    merlin_on = span.Stop();
  }

  // STOMP matrix profile, f64-vs-f32 cohort (ARCHITECTURE.md §12): same
  // 8k series, same subsequence length; only the distance-row precision
  // tier changes. Both run under the plan cache so the FFT seed cost is
  // identical and the delta isolates the row kernels.
  double stomp_f64, stomp_f32;
  {
    signal::ScopedPlanCache plan(true);
    trace::TraceSpan span("bench.stomp_f64");
    auto result = Stomp(x8k, 50, simd::Precision::kF64);
    TRIAD_CHECK(result.ok());
    benchmark::DoNotOptimize(result->distances);
    stomp_f64 = span.Stop();
  }
  {
    signal::ScopedPlanCache plan(true);
    trace::TraceSpan span("bench.stomp_f32");
    auto result = Stomp(x8k, 50, simd::Precision::kF32);
    TRIAD_CHECK(result.ok());
    benchmark::DoNotOptimize(result->distances);
    stomp_f32 = span.Stop();
  }

  const auto counter = [](const char* name) {
    return static_cast<double>(
        metrics::Registry::Global().counter(name)->value());
  };
  bench::WriteBenchJson(
      "discord", wall.ElapsedSeconds(),
      {{"mass_profile_plan_off_seconds", mass_off},
       {"mass_profile_plan_on_seconds", mass_on},
       {"mass_profile_speedup", mass_off / mass_on},
       {"merlin_sweep_plan_off_seconds", merlin_off},
       {"merlin_sweep_plan_on_seconds", merlin_on},
       {"merlin_sweep_speedup", merlin_off / merlin_on},
       {"precision_f32", 1.0},  // record carries an f32 cohort (§12)
       {"stomp_f64_seconds", stomp_f64},
       {"stomp_f32_seconds", stomp_f32},
       {"stomp_f32_speedup", stomp_f64 / stomp_f32},
       {"fft_plan_hits", counter("fft.plan_hits")},
       {"fft_plan_misses", counter("fft.plan_misses")},
       {"mass_spectrum_hits", counter("mass.spectrum_hits")},
       {"mass_spectrum_misses", counter("mass.spectrum_misses")}});
  return 0;
}

}  // namespace
}  // namespace triad::discord

// google-benchmark's BENCHMARK_MAIN rejects flags it does not know, so the
// --json mode is dispatched before benchmark::Initialize ever sees argv.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--json")) {
      return triad::discord::RunJsonMode();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
