#include "discord/stomp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "discord/mass.h"

namespace triad::discord {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Rows per parallel chunk. Each chunk seeds its first dot-product row with
// one FFT pass and slides serially inside the chunk, so the decomposition
// (and therefore every floating-point result) is fixed by this constant
// alone — never by the thread count. Large enough that the per-chunk FFT
// seed is amortized over thousands of O(1) sliding updates.
constexpr int64_t kStompChunkRows = 2048;

// The kF32 chunk loop: same decomposition (kStompChunkRows, FFT seed per
// chunk, O(1) sliding updates inside), but the series copy, stats, dot row,
// and distance row are float32 and every sweep is an 8-lane kernel. Winning
// distances are widened into the double profile.
void StompF32(const MassContext& ctx, const std::vector<double>& series,
              int64_t m, int64_t count, int64_t exclusion,
              metrics::Counter* rows_counter, MatrixProfile* profile) {
  const RollingStatsF32 stats = ctx.StatsF32(m);
  std::vector<float> series32(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    series32[i] = static_cast<float>(series[i]);
  }
  // Chunk seeds stay a double query-side FFT (SlidingDotsIntoF32 narrows the
  // result), so seed accuracy does not degrade with the chunk count.
  const auto FftRowF32 = [&](int64_t i) {
    std::vector<float> row(static_cast<size_t>(count));
    ctx.SlidingDotsIntoF32(series.data() + i, m, row.data());
    return row;
  };
  const std::vector<float> first_row = FftRowF32(0);
  constexpr float kInfF = std::numeric_limits<float>::infinity();

  ParallelFor(0, count, kStompChunkRows, [&](int64_t row_begin,
                                             int64_t row_end) {
    rows_counter->Increment(static_cast<uint64_t>(row_end - row_begin));
    std::vector<float> qt =
        row_begin == 0 ? first_row : FftRowF32(row_begin);
    std::vector<float> dist(static_cast<size_t>(count));
    for (int64_t i = row_begin; i < row_end; ++i) {
      if (i > row_begin) {
        simd::SlidingDotUpdateF32(qt.data(), count,
                                  series32[static_cast<size_t>(i - 1)],
                                  series32.data(),
                                  series32[static_cast<size_t>(i + m - 1)],
                                  series32.data() + m);
        qt[0] = first_row[static_cast<size_t>(i)];  // QT_i[0] = QT_0[i]
      }
      simd::ZNormDistRowF32(qt.data(), stats.mean.data(),
                            stats.stddev.data(),
                            stats.mean[static_cast<size_t>(i)],
                            stats.stddev[static_cast<size_t>(i)], m,
                            dist.data(), count);
      float best = kInfF;
      int64_t best_j = -1;
      for (int64_t j = 0; j < count; ++j) {
        if (std::llabs(j - i) < exclusion) continue;
        const float d = dist[static_cast<size_t>(j)];
        if (d < best) {
          best = d;
          best_j = j;
        }
      }
      profile->distances[static_cast<size_t>(i)] = static_cast<double>(best);
      profile->indices[static_cast<size_t>(i)] = best_j;
    }
  });
}

}  // namespace

Result<MatrixProfile> Stomp(const std::vector<double>& series, int64_t m,
                            simd::Precision precision) {
  const int64_t n = static_cast<int64_t>(series.size());
  if (m < 2) return Status::InvalidArgument("subsequence length must be >= 2");
  if (2 * m > n) {
    return Status::InvalidArgument(
        "series too short for non-trivial matches at this length");
  }
  const int64_t count = n - m + 1;
  const int64_t exclusion = m;
  // One amortization context for every chunk seed: the rolling stats come
  // from its prefix sums and each FFT row reuses the cached series spectrum
  // (one series-side transform for the whole profile instead of one per
  // chunk). Bit-identical to the from-scratch path (ARCHITECTURE.md §7).
  const MassContext ctx(series);

  MatrixProfile profile;
  profile.distances.assign(static_cast<size_t>(count), kInf);
  profile.indices.assign(static_cast<size_t>(count), -1);

  static metrics::Counter* f32_rows_counter =
      metrics::Registry::Global().counter("stomp.rows");
  if (precision == simd::Precision::kF32) {
    StompF32(ctx, series, m, count, exclusion, f32_rows_counter, &profile);
    return profile;
  }
  const RollingStats stats = ctx.Stats(m);

  // Dot products of subsequence i with every subsequence j, via one FFT
  // pass against the cached spectrum: QT_i[j] = dot(sub_i, sub_j).
  const auto FftRow = [&](int64_t i) {
    std::vector<double> row(static_cast<size_t>(count));
    ctx.SlidingDotsInto(series.data() + i, m, row.data());
    return row;
  };
  // Row 0 doubles as the symmetry source for every chunk's sliding updates:
  // QT_i[0] = QT_0[i].
  const std::vector<double> first_row = FftRow(0);

  // Chunks of rows; each chunk seeds its first row with an FFT pass (chunk
  // 0 reuses row 0) and applies the O(1) sliding update within the chunk.
  static metrics::Counter* rows_counter =
      metrics::Registry::Global().counter("stomp.rows");
  ParallelFor(0, count, kStompChunkRows, [&](int64_t row_begin,
                                             int64_t row_end) {
    rows_counter->Increment(static_cast<uint64_t>(row_end - row_begin));
    std::vector<double> qt =
        row_begin == 0 ? first_row : FftRow(row_begin);
    std::vector<double> dist(static_cast<size_t>(count));
    for (int64_t i = row_begin; i < row_end; ++i) {
      if (i > row_begin) {
        // O(1) sliding update per cell (vectorized kernel, back to front):
        // QT_i[j] = QT_{i-1}[j-1] - x[i-1]x[j-1] + x[i+m-1]x[j+m-1].
        simd::SlidingDotUpdate(qt.data(), count,
                               series[static_cast<size_t>(i - 1)],
                               series.data(),
                               series[static_cast<size_t>(i + m - 1)],
                               series.data() + m);
        qt[0] = first_row[static_cast<size_t>(i)];  // QT_i[0] = QT_0[i]
      }
      // Whole distance row at once (elementwise, bit-identical across SIMD
      // tiers), then a scalar argmin honoring the exclusion zone.
      simd::ZNormDistRow(qt.data(), stats.mean.data(), stats.stddev.data(),
                         stats.mean[static_cast<size_t>(i)],
                         stats.stddev[static_cast<size_t>(i)], m, dist.data(),
                         count);
      double best = kInf;
      int64_t best_j = -1;
      for (int64_t j = 0; j < count; ++j) {
        if (std::llabs(j - i) < exclusion) continue;
        const double d = dist[static_cast<size_t>(j)];
        if (d < best) {
          best = d;
          best_j = j;
        }
      }
      profile.distances[static_cast<size_t>(i)] = best;
      profile.indices[static_cast<size_t>(i)] = best_j;
    }
  });
  return profile;
}

StompStream::StompStream(int64_t m, simd::Precision precision)
    : m_(m), precision_(precision) {
  TRIAD_CHECK(m >= 2);  // shorter subsequences have no z-norm distance
  prefix_.push_back(0.0);
  prefix_sq_.push_back(0.0);
}

StompStream::AppendResult StompStream::Append(
    const std::vector<double>& points) {
  AppendResult result;
  // Initialize the changed hull to an empty span at the current frontier so
  // min/max merging below works from any starting state.
  result.changed_begin = count();
  result.changed_end = count();
  ++generation_;  // distinct-row accounting: one stamp epoch per Append
  for (double v : points) PushPoint(v, &result);
  if (result.updated_rows == 0) {
    result.changed_begin = result.changed_end = count();
  }
  return result;
}

void StompStream::PushPoint(double value, AppendResult* result) {
  static metrics::Counter* rows_counter =
      metrics::Registry::Global().counter("stomp.stream_rows");
  static metrics::Counter* updates_counter =
      metrics::Registry::Global().counter("stomp.stream_row_updates");
  series_.push_back(value);
  if (precision_ == simd::Precision::kF32) {
    series_f32_.push_back(static_cast<float>(value));
  }
  // Same sequential accumulation as mass.cc's BuildPrefixSums, so the
  // derived stats match ComputeRollingStats exactly (both tiers: the kF32
  // stats are these exact doubles rounded once).
  const size_t len = series_.size();
  tail_run_ = len > 1 && value == series_[len - 2] ? tail_run_ + 1 : 1;
  prefix_.push_back(prefix_.back() + value);
  prefix_sq_.push_back(prefix_sq_.back() + value * value);
  const int64_t n = static_cast<int64_t>(series_.size());
  if (n < m_) return;

  const int64_t i = n - m_;  // index of the newly completed subsequence
  const int64_t new_count = i + 1;
  {
    // DeriveStats arithmetic for the one new row.
    const double sum = prefix_[static_cast<size_t>(i + m_)] -
                       prefix_[static_cast<size_t>(i)];
    const double sum_sq = prefix_sq_[static_cast<size_t>(i + m_)] -
                          prefix_sq_[static_cast<size_t>(i)];
    const double mu = sum / static_cast<double>(m_);
    const double var =
        std::max(0.0, sum_sq / static_cast<double>(m_) - mu * mu);
    // An exactly constant window is flat, as in DeriveStats.
    const double sd = tail_run_ >= m_ ? 0.0 : std::sqrt(var);
    if (precision_ == simd::Precision::kF32) {
      mean_f32_.push_back(static_cast<float>(mu));
      stddev_f32_.push_back(static_cast<float>(sd));
    } else {
      mean_.push_back(mu);
      stddev_.push_back(sd);
    }
  }
  rows_counter->Increment();

  if (precision_ == simd::Precision::kF32) {
    PushPointF32(value, i, new_count);
  } else {
    // Extend the sliding-dot row: QT_i[j] = QT_{i-1}[j-1]
    //   - x[i-1]x[j-1] + x[i+m-1]x[j+m-1], the batch path's exact
    // recurrence; QT_i[0] has no predecessor and is computed directly.
    qt_.resize(static_cast<size_t>(new_count), 0.0);
    if (i > 0) {
      simd::SlidingDotUpdate(qt_.data(), new_count,
                             series_[static_cast<size_t>(i - 1)],
                             series_.data(),
                             series_[static_cast<size_t>(i + m_ - 1)],
                             series_.data() + m_);
    }
    double dot0 = 0.0;
    for (int64_t t = 0; t < m_; ++t) {
      dot0 += series_[static_cast<size_t>(i + t)] *
              series_[static_cast<size_t>(t)];
    }
    qt_[0] = dot0;

    // Distance of the new subsequence to every existing one (symmetric),
    // via the kernel shared with Stomp/MASS.
    dist_.resize(static_cast<size_t>(new_count));
    simd::ZNormDistRow(qt_.data(), mean_.data(), stddev_.data(),
                       mean_[static_cast<size_t>(i)],
                       stddev_[static_cast<size_t>(i)], m_, dist_.data(),
                       new_count);
  }
  // Distances below are read through this indirection so the argmin/relax
  // bookkeeping (profile, changed hull, generation stamps) is shared
  // between tiers; the f32 tier widens each value once at read time.
  const bool f32 = precision_ == simd::Precision::kF32;
  const auto dist_at = [&](int64_t j) -> double {
    return f32 ? static_cast<double>(dist_f32_[static_cast<size_t>(j)])
               : dist_[static_cast<size_t>(j)];
  };

  // New row: argmin over the exclusion zone, strict < (earliest tie wins),
  // matching the batch scan.
  double best = kInf;
  int64_t best_j = -1;
  for (int64_t j = 0; j + m_ <= i; ++j) {
    const double d = dist_at(j);
    if (d < best) {
      best = d;
      best_j = j;
    }
  }
  profile_.distances.push_back(best);
  profile_.indices.push_back(best_j);
  touched_.push_back(0);
  ++result->new_rows;

  // Relax old rows the new subsequence now serves as nearest neighbour. A
  // row may be relaxed by several subsequences appended in one call; the
  // generation stamp keeps updated_rows a count of *distinct* rows.
  for (int64_t j = 0; j + m_ <= i; ++j) {
    const double d = dist_at(j);
    if (d < profile_.distances[static_cast<size_t>(j)]) {
      profile_.distances[static_cast<size_t>(j)] = d;
      profile_.indices[static_cast<size_t>(j)] = i;
      if (result->updated_rows == 0) {
        result->changed_begin = j;
        result->changed_end = j + 1;
      } else {
        result->changed_begin = std::min(result->changed_begin, j);
        result->changed_end = std::max(result->changed_end, j + 1);
      }
      if (touched_[static_cast<size_t>(j)] != generation_) {
        touched_[static_cast<size_t>(j)] = generation_;
        ++result->updated_rows;
      }
      updates_counter->Increment();
    }
  }
}

void StompStream::PushPointF32(double value, int64_t i, int64_t new_count) {
  (void)value;  // already narrowed into series_f32_ by PushPoint
  // The float mirror of the kF64 sweep: same recurrence, 8-lane float
  // kernels over the float32 series copy. QT_i[0] has no predecessor and is
  // the f32 dot of the new window with window 0.
  qt_f32_.resize(static_cast<size_t>(new_count), 0.0f);
  if (i > 0) {
    simd::SlidingDotUpdateF32(qt_f32_.data(), new_count,
                              series_f32_[static_cast<size_t>(i - 1)],
                              series_f32_.data(),
                              series_f32_[static_cast<size_t>(i + m_ - 1)],
                              series_f32_.data() + m_);
  }
  qt_f32_[0] =
      simd::DotF32(series_f32_.data() + i, series_f32_.data(), m_);

  dist_f32_.resize(static_cast<size_t>(new_count));
  simd::ZNormDistRowF32(qt_f32_.data(), mean_f32_.data(), stddev_f32_.data(),
                        mean_f32_[static_cast<size_t>(i)],
                        stddev_f32_[static_cast<size_t>(i)], m_,
                        dist_f32_.data(), new_count);
}

std::vector<int64_t> TopDiscordsFromProfile(const MatrixProfile& profile,
                                            int64_t m, int64_t k) {
  std::vector<int64_t> order(profile.distances.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return profile.distances[static_cast<size_t>(a)] >
           profile.distances[static_cast<size_t>(b)];
  });
  std::vector<int64_t> top;
  for (int64_t candidate : order) {
    if (!std::isfinite(profile.distances[static_cast<size_t>(candidate)])) {
      continue;
    }
    bool overlaps = false;
    for (int64_t kept : top) {
      overlaps = overlaps || std::llabs(candidate - kept) < m;
    }
    if (!overlaps) top.push_back(candidate);
    if (static_cast<int64_t>(top.size()) >= k) break;
  }
  return top;
}

}  // namespace triad::discord
