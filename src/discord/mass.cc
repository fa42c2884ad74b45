#include "discord/mass.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "signal/fft.h"
#include "signal/fft_plan.h"
#include "signal/windows.h"

namespace triad::discord {
namespace {

using signal::Complex;

// Builds the prefix sums ComputeRollingStats and MassContext share.
void BuildPrefixSums(const std::vector<double>& series,
                     std::vector<double>* prefix,
                     std::vector<double>* prefix_sq) {
  const int64_t n = static_cast<int64_t>(series.size());
  prefix->assign(static_cast<size_t>(n) + 1, 0.0);
  prefix_sq->assign(static_cast<size_t>(n) + 1, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    (*prefix)[static_cast<size_t>(i) + 1] =
        (*prefix)[static_cast<size_t>(i)] + series[static_cast<size_t>(i)];
    (*prefix_sq)[static_cast<size_t>(i) + 1] =
        (*prefix_sq)[static_cast<size_t>(i)] +
        series[static_cast<size_t>(i)] * series[static_cast<size_t>(i)];
  }
}

// Derives length-m rolling stats from the prefix sums; the single place
// this arithmetic lives, so the one-shot and amortized paths cannot drift.
//
// E[x^2] - E[x]^2 over prefix sums leaves an exactly constant window a
// deviation of rounding noise (~1e-8 for values that do not survive the
// cancellation), which would slip past the 1e-12 flat rule; a rolling
// count of unequal neighbours pins those windows to exactly 0. Every other
// window keeps the prefix-sum bits.
RollingStats DeriveStats(const std::vector<double>& series,
                         const std::vector<double>& prefix,
                         const std::vector<double>& prefix_sq, int64_t m) {
  const int64_t n = static_cast<int64_t>(series.size());
  TRIAD_CHECK(m >= 1 && m <= n);
  const int64_t count = n - m + 1;
  RollingStats out;
  out.mean.resize(static_cast<size_t>(count));
  out.stddev.resize(static_cast<size_t>(count));
  // Unequal neighbour pairs (x[k], x[k+1]) inside window i; zero exactly
  // when the window is constant.
  auto step = [&series](int64_t k) -> int64_t {
    return series[static_cast<size_t>(k)] != series[static_cast<size_t>(k) + 1];
  };
  int64_t steps = 0;
  for (int64_t k = 0; k + 1 < m; ++k) steps += step(k);
  for (int64_t i = 0; i < count; ++i) {
    if (i > 0) steps += step(i + m - 2) - step(i - 1);
    const double sum = prefix[static_cast<size_t>(i + m)] - prefix[static_cast<size_t>(i)];
    const double sum_sq =
        prefix_sq[static_cast<size_t>(i + m)] - prefix_sq[static_cast<size_t>(i)];
    const double mu = sum / static_cast<double>(m);
    const double var =
        std::max(0.0, sum_sq / static_cast<double>(m) - mu * mu);
    out.mean[static_cast<size_t>(i)] = mu;
    out.stddev[static_cast<size_t>(i)] = steps == 0 ? 0.0 : std::sqrt(var);
  }
  return out;
}

}  // namespace

RollingStats ComputeRollingStats(const std::vector<double>& series,
                                 int64_t m) {
  const int64_t n = static_cast<int64_t>(series.size());
  TRIAD_CHECK(m >= 1 && m <= n);
  std::vector<double> prefix;
  std::vector<double> prefix_sq;
  BuildPrefixSums(series, &prefix, &prefix_sq);
  return DeriveStats(series, prefix, prefix_sq, m);
}

namespace {

// Spectrum-cache effectiveness counters, shared by every context. Deliberate
// *eager* registration from the MassContext constructor (not lazily on first
// SpectrumFor): registered names are what exporters snapshot, so
// `ucr_runner --metrics-json` and the streaming bench report the pair —
// zero-valued if no query ran yet — instead of silently omitting it when a
// run never touched the spectrum cache.
struct SpectrumCounters {
  metrics::Counter* hits =
      metrics::Registry::Global().counter("mass.spectrum_hits");
  metrics::Counter* misses =
      metrics::Registry::Global().counter("mass.spectrum_misses");
};

SpectrumCounters& SpectrumInstruments() {
  static SpectrumCounters c;
  return c;
}

}  // namespace

MassContext::MassContext(std::vector<double> series)
    : series_(std::move(series)) {
  SpectrumInstruments();  // register mass.spectrum_* for exporters
  BuildPrefixSums(series_, &prefix_, &prefix_sq_);
}

RollingStats MassContext::Stats(int64_t m) const {
  return DeriveStats(series_, prefix_, prefix_sq_, m);
}

RollingStatsF32 MassContext::StatsF32(int64_t m) const {
  // Exact double derivation, rounded once — never accumulated in single.
  const RollingStats stats = Stats(m);
  RollingStatsF32 out;
  out.mean.resize(stats.mean.size());
  out.stddev.resize(stats.stddev.size());
  for (size_t i = 0; i < stats.mean.size(); ++i) {
    out.mean[i] = static_cast<float>(stats.mean[i]);
    out.stddev[i] = static_cast<float>(stats.stddev[i]);
  }
  return out;
}

std::shared_ptr<const std::vector<Complex>> MassContext::SpectrumFor(
    size_t padded) const {
  metrics::Counter* hits_counter = SpectrumInstruments().hits;
  metrics::Counter* misses_counter = SpectrumInstruments().misses;

  std::lock_guard<std::mutex> lock(mu_);
  auto it = spectra_.find(padded);
  if (it != spectra_.end()) {
    hits_counter->Increment();
    return it->second;
  }
  misses_counter->Increment();
  // Identical construction to the series side of the reference FftConvolve:
  // zero-pad, forward transform (the planned transform is bit-identical to
  // the unplanned one). Built under the lock so concurrent first touches
  // of one padded size never duplicate the work.
  auto spec = std::make_shared<std::vector<Complex>>(padded, Complex(0, 0));
  for (size_t i = 0; i < series_.size(); ++i) {
    (*spec)[i] = Complex(series_[i], 0);
  }
  signal::GetFftPlan(padded)->Forward(spec.get());
  spectra_[padded] = spec;
  return spec;
}

std::shared_ptr<const std::vector<std::complex<float>>>
MassContext::SpectrumForF32(size_t padded) const {
  metrics::Counter* hits_counter = SpectrumInstruments().hits;
  metrics::Counter* misses_counter = SpectrumInstruments().misses;

  std::lock_guard<std::mutex> lock(mu_);
  auto it = spectra_f32_.find(padded);
  if (it != spectra_f32_.end()) {
    hits_counter->Increment();
    return it->second;
  }
  misses_counter->Increment();
  // The double forward transform is computed transiently and narrowed once;
  // only the complex<float> spectrum is retained, so f32-only workloads pay
  // half the spectrum-cache memory of the double tier. If the double
  // spectrum is already cached (mixed-tier workloads) it is narrowed in
  // place instead of recomputed.
  std::vector<Complex> scratch;
  const std::vector<Complex>* source = nullptr;
  auto dit = spectra_.find(padded);
  if (dit != spectra_.end()) {
    source = dit->second.get();
  } else {
    scratch.assign(padded, Complex(0, 0));
    for (size_t i = 0; i < series_.size(); ++i) {
      scratch[i] = Complex(series_[i], 0);
    }
    signal::GetFftPlan(padded)->Forward(&scratch);
    source = &scratch;
  }
  auto spec = std::make_shared<std::vector<std::complex<float>>>(padded);
  for (size_t i = 0; i < padded; ++i) {
    (*spec)[i] = std::complex<float>(static_cast<float>((*source)[i].real()),
                                     static_cast<float>((*source)[i].imag()));
  }
  spectra_f32_[padded] = spec;
  return spec;
}

void MassContext::SlidingDotsInto(const double* query, int64_t m,
                                  double* dots) const {
  const int64_t n = size();
  TRIAD_CHECK(m >= 1 && m <= n);
  const int64_t count = n - m + 1;

  if (!signal::PlanCacheEnabled()) {
    // Escape hatch: the from-scratch reference formulation (reversed query,
    // full two-sided FftConvolve), bit-identical by the plan contract.
    std::vector<double> reversed(static_cast<size_t>(m));
    for (int64_t j = 0; j < m; ++j) {
      reversed[static_cast<size_t>(j)] = query[m - 1 - j];
    }
    const std::vector<double> conv = signal::FftConvolve(series_, reversed);
    for (int64_t i = 0; i < count; ++i) {
      dots[i] = conv[static_cast<size_t>(m - 1 + i)];
    }
    return;
  }

  const size_t padded = signal::NextPowerOfTwo(series_.size() +
                                               static_cast<size_t>(m) - 1);
  const std::shared_ptr<const signal::FftPlan> plan =
      signal::GetFftPlan(padded);
  const std::shared_ptr<const std::vector<Complex>> series_spec =
      SpectrumFor(padded);

  // Per-worker scratch (concurrent MASS scans share the context).
  thread_local std::vector<Complex> fb;
  fb.assign(padded, Complex(0, 0));
  for (int64_t j = 0; j < m; ++j) {
    fb[static_cast<size_t>(j)] = Complex(query[m - 1 - j], 0);
  }
  plan->Forward(&fb);
  // Same operand order as the reference FftConvolve (series spectrum on
  // the left), so the products are bit-identical.
  for (size_t i = 0; i < padded; ++i) fb[i] = (*series_spec)[i] * fb[i];
  plan->InverseUnnormalized(&fb);
  const double inv = 1.0 / static_cast<double>(padded);
  for (int64_t i = 0; i < count; ++i) {
    dots[i] = fb[static_cast<size_t>(m - 1 + i)].real() * inv;
  }
}

void MassContext::SlidingDotsIntoF32(const double* query, int64_t m,
                                     float* dots) const {
  const int64_t n = size();
  TRIAD_CHECK(m >= 1 && m <= n);
  const int64_t count = n - m + 1;

  if (!signal::PlanCacheEnabled()) {
    // Escape hatch: narrow the double reference convolution. The f32
    // accuracy contract is an envelope vs the double row, not bit-identity,
    // so the plan-off path only has to land inside the same envelope.
    std::vector<double> reversed(static_cast<size_t>(m));
    for (int64_t j = 0; j < m; ++j) {
      reversed[static_cast<size_t>(j)] = query[m - 1 - j];
    }
    const std::vector<double> conv = signal::FftConvolve(series_, reversed);
    for (int64_t i = 0; i < count; ++i) {
      dots[i] = static_cast<float>(conv[static_cast<size_t>(m - 1 + i)]);
    }
    return;
  }

  const size_t padded = signal::NextPowerOfTwo(series_.size() +
                                               static_cast<size_t>(m) - 1);
  const std::shared_ptr<const signal::FftPlan> plan =
      signal::GetFftPlan(padded);
  const std::shared_ptr<const std::vector<std::complex<float>>> series_spec =
      SpectrumForF32(padded);

  // Query-side transform stays double (it is O(padded log padded) either
  // way and dominates nothing); the series spectrum is the f32 one, widened
  // at multiply time with the same operand order as the double path.
  thread_local std::vector<Complex> fb;
  fb.assign(padded, Complex(0, 0));
  for (int64_t j = 0; j < m; ++j) {
    fb[static_cast<size_t>(j)] = Complex(query[m - 1 - j], 0);
  }
  plan->Forward(&fb);
  for (size_t i = 0; i < padded; ++i) {
    const Complex widened(static_cast<double>((*series_spec)[i].real()),
                          static_cast<double>((*series_spec)[i].imag()));
    fb[i] = widened * fb[i];
  }
  plan->InverseUnnormalized(&fb);
  const double inv = 1.0 / static_cast<double>(padded);
  for (int64_t i = 0; i < count; ++i) {
    dots[i] = static_cast<float>(fb[static_cast<size_t>(m - 1 + i)].real() * inv);
  }
}

void MassContext::DistanceProfileInto(const double* query, int64_t m,
                                      const RollingStats& stats,
                                      double* out) const {
  const int64_t n = size();
  TRIAD_CHECK(m >= 1 && m <= n);
  const int64_t count = n - m + 1;
  TRIAD_CHECK(static_cast<int64_t>(stats.mean.size()) == count);
  // MASS profiles run from pool workers (selection stage, Orchard index
  // build); Counter increments are exact under concurrency.
  static metrics::Counter* profiles_counter =
      metrics::Registry::Global().counter("mass.profiles");
  profiles_counter->Increment();

  double q_mean = 0.0;
  for (int64_t j = 0; j < m; ++j) q_mean += query[j];
  q_mean /= static_cast<double>(m);
  double q_ss = 0.0;
  for (int64_t j = 0; j < m; ++j) {
    q_ss += (query[j] - q_mean) * (query[j] - q_mean);
  }
  const double q_std = std::sqrt(q_ss / static_cast<double>(m));

  thread_local std::vector<double> dots;
  dots.resize(static_cast<size_t>(count));
  SlidingDotsInto(query, m, dots.data());

  // The dot->distance conversion (flat guards included) is the vectorized
  // kernel shared with STOMP.
  simd::ZNormDistRow(dots.data(), stats.mean.data(), stats.stddev.data(),
                     q_mean, q_std, m, out, count);
}

void MassContext::DistanceProfileIntoF32(const double* query, int64_t m,
                                         const RollingStatsF32& stats,
                                         double* out) const {
  const int64_t n = size();
  TRIAD_CHECK(m >= 1 && m <= n);
  const int64_t count = n - m + 1;
  TRIAD_CHECK(static_cast<int64_t>(stats.mean.size()) == count);
  static metrics::Counter* profiles_counter =
      metrics::Registry::Global().counter("mass.profiles");
  profiles_counter->Increment();

  // Query stats in double (two O(m) passes are noise next to the FFT),
  // rounded once like StatsF32 — so both sides of the z-normalization see
  // correctly-rounded single-precision stats.
  double q_mean = 0.0;
  for (int64_t j = 0; j < m; ++j) q_mean += query[j];
  q_mean /= static_cast<double>(m);
  double q_ss = 0.0;
  for (int64_t j = 0; j < m; ++j) {
    q_ss += (query[j] - q_mean) * (query[j] - q_mean);
  }
  const double q_std = std::sqrt(q_ss / static_cast<double>(m));

  thread_local std::vector<float> dots_f32;
  thread_local std::vector<float> row_f32;
  dots_f32.resize(static_cast<size_t>(count));
  row_f32.resize(static_cast<size_t>(count));
  SlidingDotsIntoF32(query, m, dots_f32.data());

  simd::ZNormDistRowF32(dots_f32.data(), stats.mean.data(),
                        stats.stddev.data(), static_cast<float>(q_mean),
                        static_cast<float>(q_std), m, row_f32.data(), count);
  for (int64_t i = 0; i < count; ++i) {
    out[i] = static_cast<double>(row_f32[static_cast<size_t>(i)]);
  }
}

std::vector<double> MassContext::DistanceProfile(
    const std::vector<double>& query, simd::Precision precision) const {
  const int64_t m = static_cast<int64_t>(query.size());
  std::vector<double> profile(static_cast<size_t>(size() - m + 1));
  if (precision == simd::Precision::kF32) {
    const RollingStatsF32 stats = StatsF32(m);
    DistanceProfileIntoF32(query.data(), m, stats, profile.data());
  } else {
    const RollingStats stats = Stats(m);
    DistanceProfileInto(query.data(), m, stats, profile.data());
  }
  return profile;
}

std::vector<double> MassDistanceProfile(const std::vector<double>& series,
                                        const std::vector<double>& query) {
  const MassContext ctx(series);
  return ctx.DistanceProfile(query);
}

double ZNormDistanceEarlyAbandon(const double* a, double mean_a, double std_a,
                                 const double* b, double mean_b, double std_b,
                                 int64_t m, double best_so_far) {
  // Flat-vs-non-flat pairs have no defined z-normalized distance; +inf makes
  // downstream isfinite checks exclude them (matches simd::ZNormDistRow).
  const bool a_flat = std_a < 1e-12;
  const bool b_flat = std_b < 1e-12;
  if (a_flat || b_flat) {
    return (a_flat && b_flat) ? 0.0
                              : std::numeric_limits<double>::infinity();
  }

  const double threshold = best_so_far * best_so_far;
  const double inv_a = 1.0 / std_a;
  const double inv_b = 1.0 / std_b;
  double acc = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    const double za = (a[i] - mean_a) * inv_a;
    const double zb = (b[i] - mean_b) * inv_b;
    const double d = za - zb;
    acc += d * d;
    if (acc > threshold) return std::sqrt(acc);  // abandoned: lower bound only
  }
  return std::sqrt(acc);
}

std::vector<double> MatrixProfileNaive(const std::vector<double>& series,
                                       int64_t m) {
  const int64_t n = static_cast<int64_t>(series.size());
  TRIAD_CHECK(m >= 1 && m <= n);
  const int64_t count = n - m + 1;
  const int64_t exclusion = m;  // non-self match: |i - j| >= m
  std::vector<double> profile(static_cast<size_t>(count),
                              std::numeric_limits<double>::infinity());
  // One shared context: the series spectrum and the rolling stats are
  // loop-invariant, so they are computed once here instead of once per row,
  // and each row's query is a pointer into the context's series instead of
  // a fresh vector.
  const MassContext ctx(series);
  const RollingStats stats = ctx.Stats(m);
  // Rows are independent (each computes its own MASS profile and writes
  // only its own slot), so they fan out across the pool deterministically.
  ParallelFor(0, count, /*grain=*/1, [&](int64_t begin, int64_t end) {
    std::vector<double> dp(static_cast<size_t>(count));
    for (int64_t i = begin; i < end; ++i) {
      ctx.DistanceProfileInto(ctx.series().data() + i, m, stats, dp.data());
      double best = std::numeric_limits<double>::infinity();
      for (int64_t j = 0; j < count; ++j) {
        if (std::llabs(j - i) < exclusion) continue;
        best = std::min(best, dp[static_cast<size_t>(j)]);
      }
      profile[static_cast<size_t>(i)] = best;
    }
  });
  return profile;
}

}  // namespace triad::discord
