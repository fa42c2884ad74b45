// Exact all-lengths discord sweep: one matrix profile per length, evaluated
// diagonal by diagonal with an O(1) running dot product per cell (SCAMP,
// Zimmerman et al. SoCC'19; all-lengths profile, Madrid et al. ICDM'19).
// The exact refresh rows are carried from one length to the next, which
// the all-lengths profile's q_{m+1} = q_m + x[i+m] * x[j+m] step allows.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/trace.h"
#include "discord/discord.h"
#include "discord/mass.h"

namespace triad::discord {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Rows between exact recomputations of the running diagonal dot products,
// which bounds the drift of the O(1) update.
constexpr int64_t kRefreshRows = 64;

// Contiguous runs of lengths the sweep fans over the pool. Each run pays
// one from-scratch build of its refresh rows; more runs balance the lanes
// better. 16 and 32 read best of 8/16/32/64 on BM_SweepLongPeriodRegion.
constexpr size_t kSweepRuns = 16;

// Correlation slack within which a row's swept nearest-neighbour value may
// still hide the true top discord. Every row inside it is re-ranked by its
// exact distance, so the sweep's rounding never decides the winner.
constexpr double kCorrSlack = 1e-9;

struct LengthSweep {
  std::optional<Discord> discord;
  int64_t candidates = 0;  // rows re-ranked by exact distance
  int64_t ops = 0;         // pointwise iterations of the exact re-ranking
  Status status = Status::OK();
};

// Exact dot products of the refresh rows (every kRefreshRows-th row i) for
// the length m they were last brought to: row r = i / kRefreshRows holds
// sum_{t < m} x[i+t] * x[i+k+t] at entry k - first for each diagonal k
// that row has at length `first`. Length m' adds the terms t in [m, m') in
// ascending order, the order a rebuild from zero uses, so a carried value
// has the bits of a rebuilt one.
struct RefreshCarry {
  int64_t m = 0;      // 0: not built yet
  int64_t first = 0;  // the length the rows were built at
  std::vector<std::vector<double>> rows;
};

// Best Pearson correlation of every window to a non-trivial neighbour
// (|i - j| >= m), -inf for flat windows and for windows whose every
// neighbour is flat. Row-wise over the half triangle j = i + k, k >= m,
// one running dot product per diagonal k, slid one row down per step.
// `x` is the series centred on its mean (the correlation is
// shift-invariant; centring keeps the dots well conditioned). `carry` holds
// the refresh rows of a shorter length (or none) and leaves holding m's.
std::vector<double> SweepBestCorrelation(const std::vector<double>& x,
                                         const RollingStats& stats,
                                         double centre, int64_t m,
                                         RefreshCarry& carry) {
  const int64_t count = static_cast<int64_t>(stats.mean.size());
  std::vector<double> mu(static_cast<size_t>(count));
  std::vector<double> inv_sd(static_cast<size_t>(count));
  std::vector<double> penalty(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const size_t s = static_cast<size_t>(i);
    const bool flat = stats.stddev[s] < 1e-12;
    mu[s] = stats.mean[s] - centre;
    inv_sd[s] = flat ? 0.0 : 1.0 / stats.stddev[s];
    penalty[s] = flat ? -kInf : 0.0;  // flat column: never a neighbour
  }
  std::vector<double> best(static_cast<size_t>(count), -kInf);
  // q[k - m] is diagonal k's dot product sum_t x[i+t] * x[i+k+t] for the
  // current row i; row i pairs with windows i + k for k in [m, count - i).
  std::vector<double> q(static_cast<size_t>(count - m), 0.0);
  const double inv_m = 1.0 / static_cast<double>(m);
  const double* xs = x.data();
  if (carry.m == 0) {
    carry.first = m;
    for (int64_t i = 0; i + m < count; i += kRefreshRows) {
      carry.rows.emplace_back(static_cast<size_t>(count - i - m), 0.0);
    }
  }
  for (int64_t i = 0; i + m < count; ++i) {
    const int64_t width = count - i - m;  // diagonals this row still has
    const int64_t j0 = i + m;             // first window row i pairs with
    if (i % kRefreshRows == 0) {
      // Bring the row to length m on diagonals [m, m + width): plain
      // multiply-then-add (this file is built without FMA), ascending t.
      double* exact =
          carry.rows[static_cast<size_t>(i / kRefreshRows)].data() +
          (m - carry.first);
      for (int64_t t = carry.m; t < m; ++t) {
        const double a = xs[i + t];
        const double* b = xs + j0 + t;
        for (int64_t d = 0; d < width; ++d) exact[d] += a * b[d];
      }
      std::copy(exact, exact + width, q.data());
    } else {
      // Drop x[i-1] * x[j-1], add x[i+m-1] * x[j+m-1] on every diagonal.
      simd::DiagonalDotUpdate(q.data(), width, xs[i - 1], xs + j0 - 1,
                              xs[i + m - 1], xs + j0 + m - 1);
    }
    const size_t row = static_cast<size_t>(i);
    if (penalty[row] != 0.0) continue;  // flat row: ranks nowhere
    const size_t col = static_cast<size_t>(j0);
    const double row_best = simd::SweepCorrRow(
        q.data(), mu.data() + col, inv_sd.data() + col, penalty.data() + col,
        mu[row], inv_sd[row], inv_m, best.data() + col, width);
    best[row] = std::max(best[row], row_best);
  }
  carry.m = m;
  return best;
}

LengthSweep SweepOneLength(const MassContext& mass,
                           const std::vector<double>& centred, double centre,
                           int64_t m, RefreshCarry& carry) {
  LengthSweep out;
  const int64_t count = mass.size() - m + 1;
  const RollingStats stats = mass.Stats(m);
  const std::vector<double> best =
      SweepBestCorrelation(centred, stats, centre, m, carry);

  // The discord has the lowest best correlation (largest NN distance).
  double lowest = kInf;
  for (double c : best) {
    if (c > -kInf) lowest = std::min(lowest, c);
  }
  if (lowest == kInf) return out;  // no window has a non-flat neighbour

  // Exact re-ranking of every row within the slack of the lowest value, in
  // index order with a strictly-greater update, so exact ties go to the
  // earliest position. The distances are MERLIN's early-abandon scan over
  // the same rolling stats, hence bit-identical to its reported values.
  const double* xs = mass.series().data();
  Discord top;
  top.length = m;
  top.distance = -kInf;
  for (int64_t c = 0; c < count; ++c) {
    const double bc = best[static_cast<size_t>(c)];
    if (bc == -kInf || bc > lowest + kCorrSlack) continue;
    ++out.candidates;
    const double mean_c = stats.mean[static_cast<size_t>(c)];
    const double sd_c = stats.stddev[static_cast<size_t>(c)];
    double nn = kInf;
    for (int64_t j = 0; j < count && nn >= top.distance; ++j) {
      if (std::llabs(j - c) < m) continue;
      out.ops += m;
      nn = std::min(nn, ZNormDistanceEarlyAbandon(
                            xs + c, mean_c, sd_c, xs + j,
                            stats.mean[static_cast<size_t>(j)],
                            stats.stddev[static_cast<size_t>(j)], m, nn));
    }
    if (std::isfinite(nn) && nn > top.distance) {
      top.position = c;
      top.distance = nn;
    }
  }
  if (top.position >= 0) out.discord = top;
  return out;
}

// Splits lengths [0, cells.size()) into at most kSweepRuns contiguous runs
// of about equal cell count; run r is [bounds[r], bounds[r + 1]). The split
// depends only on the lengths, never on the pool.
std::vector<size_t> SplitIntoRuns(const std::vector<uint64_t>& cells) {
  double total = 0.0;
  for (uint64_t c : cells) total += static_cast<double>(c);
  const size_t runs = std::min(kSweepRuns, cells.size());
  std::vector<size_t> bounds = {0};
  double acc = 0.0;
  for (size_t s = 0; s + 1 < cells.size() && bounds.size() < runs; ++s) {
    acc += static_cast<double>(cells[s]);
    if (acc * static_cast<double>(runs) >=
        total * static_cast<double>(bounds.size())) {
      bounds.push_back(s + 1);
    }
  }
  bounds.push_back(cells.size());
  return bounds;
}

}  // namespace

Result<MerlinResult> SweepDiscords(const std::vector<double>& series,
                                   int64_t min_length, int64_t max_length,
                                   int64_t length_step) {
  const int64_t n = static_cast<int64_t>(series.size());
  if (min_length < 2 || min_length > max_length || length_step < 1) {
    return Status::InvalidArgument("invalid discord length range");
  }
  if (2 * min_length > n) {
    return Status::InvalidArgument("series too short for discord range");
  }
  trace::TraceSpan sweep_span("discord.sweep");
  static metrics::Counter* cells_counter =
      metrics::Registry::Global().counter("discord.sweep_cells");

  std::vector<int64_t> lengths;
  std::vector<uint64_t> cells;
  for (int64_t m = min_length; m <= max_length; m += length_step) {
    if (2 * m > n) break;  // longer lengths have no non-trivial match
    lengths.push_back(m);
    // The half triangle j >= i + m: rows i in [0, n - 2m] of n - 2m + 1 - i
    // cells each.
    const uint64_t rows = static_cast<uint64_t>(n - 2 * m + 1);
    cells.push_back(rows * (rows + 1) / 2);
  }

  const MassContext mass(series);
  double centre = 0.0;
  for (double v : series) centre += v;
  centre /= static_cast<double>(n);
  std::vector<double> centred(series.size());
  for (size_t i = 0; i < series.size(); ++i) centred[i] = series[i] - centre;

  // One run of lengths per task, in ascending length order so the refresh
  // rows carry forward; each slot is written by exactly one task and the
  // fold below runs in ascending-length order, so the result is identical
  // at every thread count.
  const std::vector<size_t> bounds = SplitIntoRuns(cells);
  std::vector<LengthSweep> sweeps(lengths.size());
  ParallelFor(0, static_cast<int64_t>(bounds.size()) - 1, /*grain=*/1,
              [&](int64_t b, int64_t e) {
                for (int64_t r = b; r < e; ++r) {
                  RefreshCarry carry;
                  for (size_t s = bounds[static_cast<size_t>(r)];
                       s < bounds[static_cast<size_t>(r) + 1]; ++s) {
                    sweeps[s].status = CheckPassDeadline();
                    if (!sweeps[s].status.ok()) break;
                    sweeps[s] =
                        SweepOneLength(mass, centred, centre, lengths[s], carry);
                  }
                }
              });

  MerlinResult result;
  uint64_t total_cells = 0;
  for (size_t s = 0; s < lengths.size(); ++s) {
    if (!sweeps[s].status.ok()) return sweeps[s].status;
    if (sweeps[s].discord.has_value()) {
      result.discords.push_back(*sweeps[s].discord);
    }
    result.stats.candidates_after_phase1 += sweeps[s].candidates;
    result.stats.pointwise_distance_ops += sweeps[s].ops;
    total_cells += cells[s];
  }
  cells_counter->Increment(total_cells);
  return result;
}

}  // namespace triad::discord
