#ifndef TRIAD_DISCORD_STOMP_H_
#define TRIAD_DISCORD_STOMP_H_

#include <cstdint>
#include <vector>

#include "common/simd.h"
#include "common/status.h"

namespace triad::discord {

/// \brief The full matrix profile of a series: for each length-m
/// subsequence, the z-normalized distance to its nearest non-trivial match,
/// and that match's index.
struct MatrixProfile {
  std::vector<double> distances;
  std::vector<int64_t> indices;  ///< -1 when no valid neighbour exists
};

/// \brief STOMP (Zhu et al., the paper's refs [27][28]): exact matrix
/// profile in O(n^2) with O(1) sliding dot-product updates — the classical
/// fast path the matrix-profile family builds on, and the reference the
/// discord algorithms are validated against.
///
/// `precision` selects the distance-row arithmetic (default: the
/// process-wide tier from TRIAD_PRECISION / ScopedForcePrecision, resolved
/// at the call site). At kF32 the chunk loop runs the 8-lane float kernels
/// over a narrowed series copy and widens the winning distances back into
/// the double profile; neighbour indices may differ from the kF64 profile
/// only where two candidates are within the §12 tolerance envelope of each
/// other.
Result<MatrixProfile> Stomp(const std::vector<double>& series, int64_t m,
                            simd::Precision precision = simd::ActivePrecision());

/// Top-k discords from a matrix profile, mutually separated by at least one
/// subsequence length (standard exclusion).
std::vector<int64_t> TopDiscordsFromProfile(const MatrixProfile& profile,
                                            int64_t m, int64_t k);

/// \brief STOMPI-style append-only matrix-profile maintenance
/// (ARCHITECTURE.md §8).
///
/// Feeds a growing series point by point and keeps the full matrix profile
/// current: each appended point extends the previous subsequence's
/// dot-product row with one O(1) `simd::SlidingDotUpdate` sweep (the same
/// recurrence the batch Stomp applies within a chunk), scores the new row
/// with the shared ZNormDistRow kernel, and relaxes the pre-existing rows
/// whose nearest neighbour the new subsequence becomes — O(count) total
/// work per appended point instead of the O(count^2) a recompute costs.
/// Rolling stats extend from incrementally maintained prefix sums with the
/// exact arithmetic of ComputeRollingStats.
///
/// **Exactness:** the math is exact (same per-cell update recurrence as
/// Stomp), but the batch path seeds each 2048-row chunk with a fresh FFT
/// row while this class slides one unbroken chain from row 0 — a different
/// floating-point association, so profiles agree to tolerance, not bit for
/// bit (tests/stomp_test.cc pins the tolerance). That is exactly why the
/// streaming *alarm* path reuses cached results via core::DetectMemo
/// instead of this class: alarms must be bit-identical under
/// TRIAD_STREAMING_INCREMENTAL. StompStream is the library primitive for
/// profile-maintenance workloads and the latency bench
/// (bench/bench_streaming_latency.cc).
///
/// Not thread-safe; one stream per producer. Memory grows with the series
/// (the full profile is the product being maintained).
class StompStream {
 public:
  /// `m` is the subsequence length; m >= 2 is a programming-error check.
  /// `precision` is captured at construction (default: the process-wide
  /// tier at construction time) and fixed for the stream's lifetime — a
  /// stream never mixes tiers mid-chain. At kF32 the appended series,
  /// rolling stats, and dot-product row are additionally stored as float32
  /// and every per-point kernel sweep runs the 8-lane float variants; the
  /// maintained profile stays double (widened winners).
  explicit StompStream(int64_t m,
                       simd::Precision precision = simd::ActivePrecision());

  /// \brief What one Append changed, for changed-region re-search.
  ///
  /// Rows in [changed_begin, changed_end) are the hull of *pre-existing*
  /// profile rows whose distance/index changed (their new nearest
  /// neighbour is one of the appended subsequences); rows
  /// [count() - new_rows, count()) are brand new. A caller maintaining
  /// derived state (e.g. a top-discord set) only needs to rescan those two
  /// spans. changed_begin == changed_end means no old row moved.
  struct AppendResult {
    int64_t new_rows = 0;      ///< profile rows created by this call
    int64_t updated_rows = 0;  ///< pre-existing rows whose entry changed
    int64_t changed_begin = 0;
    int64_t changed_end = 0;
  };

  /// Appends points; maintains the profile for every subsequence that
  /// becomes complete. Rows appear once the series holds >= m points;
  /// distances stay +inf until a non-trivial (|i-j| >= m) neighbour exists.
  AppendResult Append(const std::vector<double>& points);

  const std::vector<double>& series() const { return series_; }
  /// The maintained profile; row i covers series()[i, i+m).
  const MatrixProfile& profile() const { return profile_; }
  int64_t m() const { return m_; }
  /// Number of profile rows (series length - m + 1, or 0).
  int64_t count() const {
    return static_cast<int64_t>(profile_.distances.size());
  }
  simd::Precision precision() const { return precision_; }

 private:
  void PushPoint(double value, AppendResult* result);
  void PushPointF32(double value, int64_t i, int64_t new_count);

  int64_t m_;
  simd::Precision precision_;
  std::vector<double> series_;
  std::vector<double> prefix_;     ///< prefix sums, series size + 1
  std::vector<double> prefix_sq_;  ///< prefix sums of squares
  int64_t tail_run_ = 0;  ///< equal-value run ending at the newest point
  std::vector<double> mean_;       ///< rolling stats per row (kF64 tier)
  std::vector<double> stddev_;
  std::vector<double> qt_;    ///< sliding dots of the latest row (kF64)
  std::vector<double> dist_;  ///< scratch distance row (kF64)
  // kF32 tier state: the series/stats/dot-row mirrors the double members
  // above, stored as float32 (prefix sums stay double so the stats keep the
  // exact-derivation-rounded-once contract; the profile stays double).
  std::vector<float> series_f32_;
  std::vector<float> mean_f32_;
  std::vector<float> stddev_f32_;
  std::vector<float> qt_f32_;
  std::vector<float> dist_f32_;
  MatrixProfile profile_;
  std::vector<uint64_t> touched_;  ///< per-row stamp of the last Append that
                                   ///< relaxed it (distinct-count bookkeeping)
  uint64_t generation_ = 0;        ///< Append call counter
};

}  // namespace triad::discord

#endif  // TRIAD_DISCORD_STOMP_H_
