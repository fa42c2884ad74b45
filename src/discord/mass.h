#ifndef TRIAD_DISCORD_MASS_H_
#define TRIAD_DISCORD_MASS_H_

#include <complex>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/simd.h"
#include "signal/fft.h"

namespace triad::discord {

/// \brief Rolling means and standard deviations of all length-m subsequences,
/// computed in O(n) with prefix sums. Used by MASS and the discord
/// algorithms' z-normalized distances. An exactly constant window gets a
/// stddev of exactly 0, so the 1e-12 flat rule always sees it.
struct RollingStats {
  std::vector<double> mean;
  std::vector<double> stddev;  ///< population stddev; 0 for flat windows
};

RollingStats ComputeRollingStats(const std::vector<double>& series,
                                 int64_t m);

/// \brief Float32 view of the rolling stats for the kF32 precision tier:
/// each entry is the exact double stat rounded once to single precision
/// (never accumulated in single), so the narrowed stats carry the full
/// accuracy of the prefix-sum derivation.
struct RollingStatsF32 {
  std::vector<float> mean;
  std::vector<float> stddev;
};

/// \brief Amortization context for repeated MASS queries against one series
/// (see ARCHITECTURE.md §7).
///
/// Owns a copy of the series plus the two prefix-sum arrays from which the
/// rolling mean/stddev of *any* subsequence length is derived, and lazily
/// caches the forward FFT of the zero-padded series per padded size — so
/// within one subsequence length every query costs one forward FFT of the
/// query, a pointwise multiply, and one inverse transform, and across a
/// MERLIN length sweep the series-side transform is shared (lengths whose
/// padded power-of-two size coincides reuse the same spectrum).
///
/// **Bit-identity contract:** every accessor reproduces the exact
/// arithmetic of the one-shot functions — Stats(m) equals
/// ComputeRollingStats(series, m), DistanceProfile(q) equals
/// MassDistanceProfile(series, q) — bit for bit, with the plan cache on or
/// off. The cache stores results of the same operations, never a
/// reformulation.
///
/// Thread-safety: const methods are safe to call concurrently from pool
/// workers (the spectrum cache takes an internal mutex on first touch per
/// padded size; per-call scratch is thread-local). Cache effectiveness is
/// exported as the `mass.spectrum_hits` / `mass.spectrum_misses` registry
/// counters.
class MassContext {
 public:
  /// Copies (or moves) the series in; the context is self-contained.
  explicit MassContext(std::vector<double> series);

  const std::vector<double>& series() const { return series_; }
  int64_t size() const { return static_cast<int64_t>(series_.size()); }

  /// Rolling stats for length m, derived from the shared prefix sums.
  RollingStats Stats(int64_t m) const;

  /// Stats(m) rounded once to single precision, for the kF32 tier's
  /// distance rows.
  RollingStatsF32 StatsF32(int64_t m) const;

  /// Sliding dot products dots[i] = sum_j series[i+j] * query[j] for
  /// i in [0, n-m]; `dots` must hold n-m+1 entries. One query-side FFT
  /// against the cached series spectrum (or the reference FftConvolve when
  /// the plan cache is disabled).
  void SlidingDotsInto(const double* query, int64_t m, double* dots) const;

  /// Sliding dots for the kF32 tier: query-side FFT in double against the
  /// float32 series spectrum (widened at multiply time), results narrowed
  /// to float. Falls back to narrowing the reference FftConvolve when the
  /// plan cache is disabled. Used for kF32 chunk seeding by Stomp as well.
  void SlidingDotsIntoF32(const double* query, int64_t m, float* dots) const;

  /// MASS distance profile of `query` against every subsequence. At kF64
  /// (the default) bit-identical to MassDistanceProfile(series, query); at
  /// kF32 the distance row runs the float32 kernels against the float32
  /// series spectrum and the result is widened back to double — same flat
  /// guards, values within the §12 tolerance envelope of the kF64 row.
  std::vector<double> DistanceProfile(
      const std::vector<double>& query,
      simd::Precision precision = simd::Precision::kF64) const;

  /// Scratch-free variant for row loops: `stats` must come from Stats(m)
  /// (hoisted out of the loop by the caller), `out` must hold n-m+1
  /// entries, and `query` may point into any live buffer (including the
  /// context's own series).
  void DistanceProfileInto(const double* query, int64_t m,
                           const RollingStats& stats, double* out) const;

  /// The kF32 tier's row loop: the sliding dots are narrowed to float, the
  /// dot->distance conversion runs simd::ZNormDistRowF32 against the
  /// narrowed stats from StatsF32(m), and the distances are widened into
  /// `out` (so consumers keep their double interfaces).
  void DistanceProfileIntoF32(const double* query, int64_t m,
                              const RollingStatsF32& stats, double* out) const;

 private:
  /// The forward FFT of the series zero-padded to `padded` (a power of
  /// two), computed once per padded size and shared.
  std::shared_ptr<const std::vector<signal::Complex>> SpectrumFor(
      size_t padded) const;

  /// Float32 series spectrum for the kF32 tier: the double forward FFT
  /// rounded once to complex<float> and cached per padded size (half the
  /// memory of the double spectrum; the double transform itself is not
  /// retained when only the f32 tier queries this context).
  std::shared_ptr<const std::vector<std::complex<float>>> SpectrumForF32(
      size_t padded) const;

  std::vector<double> series_;
  std::vector<double> prefix_;     ///< prefix sums, n+1 entries
  std::vector<double> prefix_sq_;  ///< prefix sums of squares, n+1 entries

  mutable std::mutex mu_;
  mutable std::unordered_map<size_t,
                             std::shared_ptr<const std::vector<signal::Complex>>>
      spectra_;
  mutable std::unordered_map<
      size_t, std::shared_ptr<const std::vector<std::complex<float>>>>
      spectra_f32_;
};

/// \brief MASS (Mueen's Algorithm for Similarity Search).
///
/// Returns the z-normalized Euclidean distance between `query` (length m)
/// and every length-m subsequence of `series`, in O(n log n) via one FFT
/// convolution. Flat windows (stddev 0) get distance +inf unless the query
/// is also flat (distance 0); +inf marks the pair as incomparable and every
/// downstream consumer (discord ranking, profile argmins) excludes it via
/// isfinite, so constant segments cannot masquerade as discords.
///
/// One-shot convenience over MassContext: callers issuing many queries
/// against the same series should hold a context instead so the series
/// spectrum and prefix sums are computed once.
std::vector<double> MassDistanceProfile(const std::vector<double>& series,
                                        const std::vector<double>& query);

/// Z-normalized Euclidean distance between two equal-length windows with
/// early abandoning: returns early with a value > `best_so_far` once the
/// partial sum exceeds it. Exact when the true distance <= best_so_far.
double ZNormDistanceEarlyAbandon(const double* a, double mean_a, double std_a,
                                 const double* b, double mean_b, double std_b,
                                 int64_t m, double best_so_far);

/// \brief Naive matrix profile (nearest non-trivial-match distance for every
/// subsequence), O(n^2 log n) via per-offset MASS. Reference implementation
/// for tests and the discord-algorithm comparison bench.
std::vector<double> MatrixProfileNaive(const std::vector<double>& series,
                                       int64_t m);

}  // namespace triad::discord

#endif  // TRIAD_DISCORD_MASS_H_
