#include "discord/discord.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"
#include "discord/mass.h"

namespace triad::discord {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Shared per-length context: the amortization context (series + prefix sums
// + cached spectrum), the length, and its rolling stats. Constructed once
// per length and shared across every r-halving retry, so the O(n) stats
// derivation and the series-side FFT are not redone per restart
// (ARCHITECTURE.md §7).
struct LengthContext {
  const MassContext& mass;
  int64_t m;
  int64_t count;  // number of subsequences
  RollingStats stats;

  const std::vector<double>& series() const { return mass.series(); }
  const double* Sub(int64_t i) const { return series().data() + i; }
  double MeanAt(int64_t i) const { return stats.mean[static_cast<size_t>(i)]; }
  double StdAt(int64_t i) const { return stats.stddev[static_cast<size_t>(i)]; }

  // `ops` accumulates pointwise work into a caller-owned counter so that
  // concurrent scans never share a counter (each parallel chunk sums into
  // its own local and the partials are combined in chunk order).
  double Distance(int64_t i, int64_t j, double best_so_far,
                  int64_t* ops) const {
    *ops += m;
    return ZNormDistanceEarlyAbandon(Sub(i), MeanAt(i), StdAt(i), Sub(j),
                                     MeanAt(j), StdAt(j), m, best_so_far);
  }
};

LengthContext MakeLengthContext(const MassContext& mass, int64_t m) {
  return LengthContext{mass, m, mass.size() - m + 1, mass.Stats(m)};
}

// Reference-point index shared by one length's whole r-halving search:
// d_ref is the MASS profile of the first subsequence (one amortized FFT
// profile per length), used two ways —
//   * phase 1 prunes distance calls with the triangle-inequality lower
//     bound |d_ref[i] - d_ref[c]| <= d(i, c) (z-normalized Euclidean
//     distance is a metric);
//   * Orchard phase 2 orders each candidate's comparisons by that same
//     bound so most of them abandon immediately.
// Built lazily on the first DRAG attempt of a length and reused across all
// retries (the index depends only on the length, not on r).
struct RefIndex {
  std::vector<double> d_ref;   // reference distances from subsequence 0
  std::vector<int64_t> order;  // subsequences sorted by d_ref
  std::vector<int64_t> rank;   // inverse permutation of order
};

RefIndex BuildRefIndex(const LengthContext& ctx) {
  RefIndex idx;
  idx.d_ref.resize(static_cast<size_t>(ctx.count));
  // The context's stats are the hoisted Stats(m); passing them in avoids
  // re-deriving them per profile.
  ctx.mass.DistanceProfileInto(ctx.Sub(0), ctx.m, ctx.stats,
                               idx.d_ref.data());
  idx.order.resize(static_cast<size_t>(ctx.count));
  for (int64_t i = 0; i < ctx.count; ++i) {
    idx.order[static_cast<size_t>(i)] = i;
  }
  std::sort(idx.order.begin(), idx.order.end(), [&](int64_t a, int64_t b) {
    return idx.d_ref[static_cast<size_t>(a)] < idx.d_ref[static_cast<size_t>(b)];
  });
  idx.rank.resize(static_cast<size_t>(ctx.count));
  for (int64_t i = 0; i < ctx.count; ++i) {
    idx.rank[static_cast<size_t>(idx.order[static_cast<size_t>(i)])] = i;
  }
  return idx;
}

// Per-candidate refinement outcome plus the work it cost; the unit of
// reduction for the parallel phase-2 scans.
struct Phase2Partial {
  Discord best;
  int64_t ops = 0;
};

Phase2Partial CombinePhase2(Phase2Partial acc, Phase2Partial next) {
  acc.ops += next.ops;
  // Strictly-greater keeps the earliest candidate on ties, matching a
  // serial in-order scan.
  if (next.best.distance > acc.best.distance) acc.best = next.best;
  return acc;
}

Phase2Partial EmptyPhase2(int64_t m) {
  Phase2Partial p;
  p.best.length = m;
  p.best.distance = -kInf;
  return p;
}

// DRAG phase 1: prune to a candidate set whose members *may* have
// NN distance >= r. Inherently sequential (the candidate list evolves as
// the scan advances), but cheap relative to phase 2.
//
// The lower-bound skip leaves the candidate set bit-identical to the
// unpruned scan: eliminating a pair requires a computed d < r, and
// whenever |d_ref[i] - d_ref[c]| >= r the true distance satisfies
// d(i, c) >= r, so the skipped call could never have eliminated anything.
// (Early abandoning already guarantees the same property for computed
// distances: an abandoned call returns a value > r only when the exact
// distance also exceeds r.) Infinite d_ref entries are safe: inf - inf
// gives NaN, the comparison is false, and the pair falls through to the
// computed distance.
std::vector<int64_t> DragPhase1(const LengthContext& ctx, const RefIndex& idx,
                                double r, int64_t* ops) {
  std::vector<int64_t> candidates;
  for (int64_t i = 0; i < ctx.count; ++i) {
    const double i_ref = idx.d_ref[static_cast<size_t>(i)];
    bool is_candidate = true;
    for (size_t ci = 0; ci < candidates.size();) {
      const int64_t c = candidates[ci];
      if (std::llabs(i - c) < ctx.m) {  // trivial match, keep both
        ++ci;
        continue;
      }
      if (std::abs(i_ref - idx.d_ref[static_cast<size_t>(c)]) >= r) {
        ++ci;  // d(i, c) >= r: this pair cannot eliminate anything
        continue;
      }
      const double d = ctx.Distance(i, c, r, ops);
      if (d < r) {
        // Both i and c have a neighbour within r: neither can be a discord.
        candidates[ci] = candidates.back();
        candidates.pop_back();
        is_candidate = false;
      } else {
        ++ci;
      }
    }
    if (is_candidate) candidates.push_back(i);
  }
  return candidates;
}

// Exact NN refinement of a single candidate, linear-scan variant with early
// abandoning. Self-contained, so candidates can be refined concurrently.
//
// The reference-point skip is result-preserving: when
// |d_ref[j] - d_ref[c]| >= nn the true distance satisfies d(c, j) >= nn,
// so the call could neither lower the running NN nor trigger the nn < r
// failure; NaN bounds (inf - inf) compare false and fall through to the
// computed distance, exactly as in phase 1.
Phase2Partial RefineCandidateLinear(const LengthContext& ctx,
                                    const RefIndex& idx, int64_t c,
                                    double r) {
  Phase2Partial out = EmptyPhase2(ctx.m);
  double nn = kInf;
  bool failed = false;
  const double c_ref = idx.d_ref[static_cast<size_t>(c)];
  for (int64_t j = 0; j < ctx.count; ++j) {
    if (std::llabs(j - c) < ctx.m) continue;
    if (std::abs(idx.d_ref[static_cast<size_t>(j)] - c_ref) >= nn) continue;
    const double d = ctx.Distance(c, j, std::min(nn, kInf), &out.ops);
    nn = std::min(nn, d);
    if (nn < r) {
      failed = true;
      break;
    }
  }
  if (!failed && nn >= r && std::isfinite(nn)) {
    out.best.position = c;
    out.best.distance = nn;
  }
  return out;
}

// DRAG phase 2, linear scan variant: exact NN distance per candidate with
// early abandoning; candidates whose NN drops below r are discarded. The
// per-candidate scans are independent, so they fan out across the pool;
// the reduction is ordered, so the result (including the ops counter) is
// identical at every thread count.
Phase2Partial DragPhase2Linear(const LengthContext& ctx,
                               const RefIndex& idx,
                               const std::vector<int64_t>& candidates,
                               double r) {
  return ParallelMapReduce(
      int64_t{0}, static_cast<int64_t>(candidates.size()), /*grain=*/1,
      EmptyPhase2(ctx.m),
      [&](int64_t b, int64_t e) {
        Phase2Partial acc = EmptyPhase2(ctx.m);
        for (int64_t k = b; k < e; ++k) {
          acc = CombinePhase2(
              std::move(acc),
              RefineCandidateLinear(ctx, idx,
                                    candidates[static_cast<size_t>(k)], r));
        }
        return acc;
      },
      CombinePhase2);
}

// Orchard-style refinement of one candidate: comparisons ordered by the
// reference-point lower bound |d_ref(j) - d_ref(c)| <= d(c, j); the walk
// stops as soon as the lower bound exceeds the current NN. Exact, usually
// far fewer ops than the linear scan.
Phase2Partial RefineCandidateOrchard(const LengthContext& ctx,
                                     const RefIndex& idx, int64_t c,
                                     double r) {
  Phase2Partial out = EmptyPhase2(ctx.m);
  double nn = kInf;
  bool failed = false;
  // Walk outward from c's rank: two-pointer over the sorted order gives
  // non-decreasing lower bounds.
  int64_t lo = idx.rank[static_cast<size_t>(c)];
  int64_t hi = lo + 1;
  const double c_ref = idx.d_ref[static_cast<size_t>(c)];
  while (lo >= 0 || hi < ctx.count) {
    int64_t pick;
    double lb_lo = kInf, lb_hi = kInf;
    if (lo >= 0) {
      lb_lo = std::abs(
          idx.d_ref[static_cast<size_t>(idx.order[static_cast<size_t>(lo)])] -
          c_ref);
    }
    if (hi < ctx.count) {
      lb_hi = std::abs(
          idx.d_ref[static_cast<size_t>(idx.order[static_cast<size_t>(hi)])] -
          c_ref);
    }
    // An exhausted side's bound is +inf, which may tie with a +inf bound on
    // the live side (flat windows have d_ref = inf), so test the index too.
    if (lo >= 0 && (hi >= ctx.count || lb_lo <= lb_hi)) {
      pick = idx.order[static_cast<size_t>(lo)];
      --lo;
    } else {
      pick = idx.order[static_cast<size_t>(hi)];
      ++hi;
    }
    const double lb = std::min(lb_lo, lb_hi);
    // A flat candidate (or a flat reference) has c_ref = inf: its bounds are
    // inf - inf = NaN or inf and carry no order, so it walks every window.
    if (std::isfinite(c_ref) && lb > nn) break;  // nothing left can improve
    if (std::llabs(pick - c) < ctx.m) continue;
    const double d = ctx.Distance(c, pick, nn, &out.ops);
    nn = std::min(nn, d);
    if (nn < r) {
      failed = true;
      break;
    }
  }
  if (!failed && nn >= r && std::isfinite(nn)) {
    out.best.position = c;
    out.best.distance = nn;
  }
  return out;
}

Phase2Partial DragPhase2Orchard(const LengthContext& ctx,
                                const RefIndex& idx,
                                const std::vector<int64_t>& candidates,
                                double r) {
  return ParallelMapReduce(
      int64_t{0}, static_cast<int64_t>(candidates.size()), /*grain=*/1,
      EmptyPhase2(ctx.m),
      [&](int64_t b, int64_t e) {
        Phase2Partial acc = EmptyPhase2(ctx.m);
        for (int64_t k = b; k < e; ++k) {
          acc = CombinePhase2(
              std::move(acc),
              RefineCandidateOrchard(ctx, idx,
                                     candidates[static_cast<size_t>(k)], r));
        }
        return acc;
      },
      CombinePhase2);
}

enum class Phase2 { kLinear, kOrchard };

// Lazily builds the per-length reference index (one MASS profile, counted
// once) and returns it; every retry of the same length reuses the built
// index.
const RefIndex& EnsureRefIndex(const LengthContext& ctx,
                               std::optional<RefIndex>* index,
                               DiscordStats* stats) {
  if (!index->has_value()) {
    *index = BuildRefIndex(ctx);
    if (stats != nullptr) stats->distance_profiles += 1;
  }
  return **index;
}

// One DRAG attempt at range r. `index` is the length's lazily-built
// reference index: the first attempt constructs it (one MASS profile),
// later retries at lower r reuse it. Callers validate m against the series
// before building the LengthContext.
std::optional<Discord> RunDrag(const LengthContext& ctx, double r,
                               Phase2 phase2, std::optional<RefIndex>* index,
                               DiscordStats* stats) {
  const RefIndex& idx = EnsureRefIndex(ctx, index, stats);
  int64_t phase1_ops = 0;
  std::vector<int64_t> candidates = DragPhase1(ctx, idx, r, &phase1_ops);
  if (stats != nullptr) {
    stats->pointwise_distance_ops += phase1_ops;
    stats->candidates_after_phase1 += static_cast<int64_t>(candidates.size());
  }
  if (candidates.empty()) return std::nullopt;

  Phase2Partial refined;
  if (phase2 == Phase2::kLinear) {
    refined = DragPhase2Linear(ctx, idx, candidates, r);
  } else {
    refined = DragPhase2Orchard(ctx, idx, candidates, r);
  }
  if (stats != nullptr) stats->pointwise_distance_ops += refined.ops;
  if (refined.best.position < 0) return std::nullopt;
  return refined.best;
}

// Top discord of one length with an independent, deterministic range
// control: r starts at the z-norm distance ceiling 2*sqrt(m) and halves on
// every failed attempt. DRAG returns the *exact* top-1 discord whenever the
// range admits any candidate, so the discovered discord does not depend on
// the r trajectory — which is what makes the per-length searches
// independent and the length sweep parallelizable. (The serial MERLIN
// control loop instead predicts r from neighbouring lengths' distances;
// that prediction is only a work-saving heuristic, and dropping it trades
// a couple of extra halving restarts per length for length-level
// parallelism with bit-identical output at every thread count.)
struct LengthOutcome {
  std::optional<Discord> discord;
  DiscordStats stats;
  Status status = Status::OK();
};

LengthOutcome SearchOneLength(const MassContext& mass, int64_t m,
                              Phase2 phase2) {
  // One span per sweep length: with ~dozens of lengths per MERLIN call the
  // trace shows exactly which length regressed, not just "discord got slow".
  trace::TraceSpan length_span("merlin.length_search");
  static metrics::Counter* restarts_counter =
      metrics::Registry::Global().counter("merlin.restarts");
  constexpr int kMaxRetries = 400;
  LengthOutcome out;
  // Everything r-independent is hoisted out of the retry loop: the rolling
  // stats (LengthContext) and the reference index survive every restart.
  const LengthContext ctx = MakeLengthContext(mass, m);
  std::optional<RefIndex> index;
  const double r_cap = 2.0 * std::sqrt(static_cast<double>(m));
  const double r_start = std::clamp(r_cap, 1e-6, r_cap * 0.999);
  // Admissible-range floor: every subsequence's exact NN distance is a
  // lower bound on the top discord's NN distance d_top = max_i NN(i), and
  // DRAG at any admissible r <= d_top finds the exact top discord — the
  // window attaining the bound survives phase 1 (none of its distances
  // falls below its own NN) and refines to a finite value >= r, so an
  // attempt at r = bound cannot fail. The halving ladder therefore never
  // needs to step below the best such bound: when the next rung would,
  // trying the bound itself succeeds and is tighter (fewer phase-1
  // survivors, stronger phase-2 abandons) than the rung. Two bounds come
  // almost for free from the reference index:
  //   * NN(0), the non-trivial minimum of d_ref itself;
  //   * NN(i_far) for i_far = argmax d_ref — the window farthest from the
  //     reference is a natural discord candidate, so its NN tends to sit
  //     close to d_top. One extra amortized MASS profile per length.
  // With no finite bound (degenerate profiles) the plain ladder remains.
  double seed = kInf;
  {
    const RefIndex& idx = EnsureRefIndex(ctx, &index, &out.stats);
    double nn0 = kInf;
    for (int64_t j = m; j < ctx.count; ++j) {
      nn0 = std::min(nn0, idx.d_ref[static_cast<size_t>(j)]);
    }
    int64_t far = -1;
    double far_d = -1.0;
    for (int64_t i = 0; i < ctx.count; ++i) {
      const double d = idx.d_ref[static_cast<size_t>(i)];
      if (std::isfinite(d) && d > far_d) {
        far_d = d;
        far = i;
      }
    }
    double nn_far = kInf;
    if (far >= 0) {
      std::vector<double> far_profile(static_cast<size_t>(ctx.count));
      ctx.mass.DistanceProfileInto(ctx.Sub(far), m, ctx.stats,
                                   far_profile.data());
      out.stats.distance_profiles += 1;
      for (int64_t j = 0; j < ctx.count; ++j) {
        if (std::llabs(j - far) < m) continue;
        nn_far = std::min(nn_far, far_profile[static_cast<size_t>(j)]);
      }
    }
    for (double bound : {nn0, nn_far}) {
      if (std::isfinite(bound) && bound > 1e-9 &&
          (!std::isfinite(seed) || bound > seed)) {
        seed = bound;
      }
    }
  }
  double r = r_start;
  int retries = 0;
  while (retries < kMaxRetries) {
    std::optional<Discord> found = RunDrag(ctx, r, phase2, &index, &out.stats);
    if (found.has_value()) {
      out.discord = *found;
      return out;
    }
    ++out.stats.restarts;
    restarts_counter->Increment();
    ++retries;
    double next = r * 0.5;
    // Floor the ladder at the admissible bound: the attempt at the bound
    // itself cannot fail, and a tighter r means less phase-1/2 work than
    // any rung below it would cost. (Strict `seed < r` keeps the loop
    // halving normally if an attempt at the bound ever did fail.)
    if (std::isfinite(seed) && seed > next && seed < r) next = seed;
    r = next;
    if (r < 1e-9) break;
  }
  return out;
}

Result<MerlinResult> RunMerlin(const std::vector<double>& series,
                               int64_t min_length, int64_t max_length,
                               int64_t length_step, Phase2 phase2) {
  const int64_t n = static_cast<int64_t>(series.size());
  if (min_length < 2 || min_length > max_length || length_step < 1) {
    return Status::InvalidArgument("invalid MERLIN length range");
  }
  if (2 * min_length > n) {
    return Status::InvalidArgument("series too short for MERLIN range");
  }
  trace::TraceSpan sweep_span("merlin.sweep");

  std::vector<int64_t> lengths;
  for (int64_t m = min_length; m <= max_length; m += length_step) {
    if (2 * m > n) break;  // longer lengths have no non-trivial match
    lengths.push_back(m);
  }

  // One amortization context for the whole sweep: the prefix sums serve
  // every length's rolling stats, and the padded series spectrum is shared
  // by every length whose padded power-of-two size coincides (for typical
  // sweeps that is all of them), so the series side of MASS is transformed
  // once rather than once per length.
  const MassContext mass(series);

  // Fan the per-length searches across the pool; fold the outcomes back in
  // ascending-length order so discords, counters, and error selection are
  // independent of the thread count. Nested parallel calls inside RunDrag
  // degrade gracefully to inline execution on the worker lanes.
  struct Accum {
    MerlinResult result;
    Status first_error = Status::OK();
  };
  Accum accum = ParallelMapReduce(
      int64_t{0}, static_cast<int64_t>(lengths.size()), /*grain=*/1, Accum{},
      [&](int64_t b, int64_t e) {
        Accum local;
        for (int64_t k = b; k < e; ++k) {
          // Cooperative deadline checkpoint, once per length: a sweep that
          // outlives its pass budget stops starting new lengths and
          // surfaces DeadlineExceeded through the usual error fold.
          Status deadline = CheckPassDeadline();
          if (!deadline.ok()) {
            if (local.first_error.ok()) local.first_error = deadline;
            break;
          }
          LengthOutcome one = SearchOneLength(
              mass, lengths[static_cast<size_t>(k)], phase2);
          if (!one.status.ok() && local.first_error.ok()) {
            local.first_error = one.status;
          }
          if (one.discord.has_value()) {
            local.result.discords.push_back(*one.discord);
          }
          local.result.stats.candidates_after_phase1 +=
              one.stats.candidates_after_phase1;
          local.result.stats.pointwise_distance_ops +=
              one.stats.pointwise_distance_ops;
          local.result.stats.distance_profiles += one.stats.distance_profiles;
          local.result.stats.restarts += one.stats.restarts;
        }
        return local;
      },
      [](Accum acc, Accum next) {
        if (acc.first_error.ok()) acc.first_error = next.first_error;
        acc.result.discords.insert(acc.result.discords.end(),
                                   next.result.discords.begin(),
                                   next.result.discords.end());
        acc.result.stats.candidates_after_phase1 +=
            next.result.stats.candidates_after_phase1;
        acc.result.stats.pointwise_distance_ops +=
            next.result.stats.pointwise_distance_ops;
        acc.result.stats.distance_profiles +=
            next.result.stats.distance_profiles;
        acc.result.stats.restarts += next.result.stats.restarts;
        return acc;
      });
  if (!accum.first_error.ok()) return accum.first_error;
  return accum.result;
}

}  // namespace

Result<Discord> BruteForceDiscord(const std::vector<double>& series,
                                  int64_t m) {
  const int64_t n = static_cast<int64_t>(series.size());
  if (m < 2) return Status::InvalidArgument("discord length must be >= 2");
  if (2 * m > n) {
    return Status::InvalidArgument(
        "series too short for non-trivial matches at this length");
  }
  const std::vector<double> profile = MatrixProfileNaive(series, m);
  Discord best;
  best.length = m;
  best.distance = -kInf;
  for (size_t i = 0; i < profile.size(); ++i) {
    if (std::isfinite(profile[i]) && profile[i] > best.distance) {
      best.distance = profile[i];
      best.position = static_cast<int64_t>(i);
    }
  }
  if (best.position < 0) {
    return Status::Internal("matrix profile had no finite entries");
  }
  return best;
}

Result<std::optional<Discord>> DragDiscord(const std::vector<double>& series,
                                           int64_t m, double r,
                                           DiscordStats* stats) {
  const int64_t n = static_cast<int64_t>(series.size());
  if (m < 2) return Status::InvalidArgument("discord length must be >= 2");
  if (2 * m > n) {
    return Status::InvalidArgument(
        "series too short for non-trivial matches at this length");
  }
  const MassContext mass(series);
  const LengthContext ctx = MakeLengthContext(mass, m);
  std::optional<RefIndex> index;
  return RunDrag(ctx, r, Phase2::kLinear, &index, stats);
}

Result<MerlinResult> Merlin(const std::vector<double>& series,
                            int64_t min_length, int64_t max_length,
                            int64_t length_step) {
  return RunMerlin(series, min_length, max_length, length_step,
                   Phase2::kLinear);
}

Result<MerlinResult> MerlinPlusPlus(const std::vector<double>& series,
                                    int64_t min_length, int64_t max_length,
                                    int64_t length_step) {
  return RunMerlin(series, min_length, max_length, length_step,
                   Phase2::kOrchard);
}

Result<std::optional<Discord>> DiscordInRange(const MassContext& mass,
                                              int64_t m, int64_t begin,
                                              int64_t end,
                                              DiscordStats* stats) {
  const int64_t n = mass.size();
  if (m < 2) return Status::InvalidArgument("discord length must be >= 2");
  if (2 * m > n) {
    return Status::InvalidArgument(
        "series too short for non-trivial matches at this length");
  }
  const int64_t count = n - m + 1;
  begin = std::clamp<int64_t>(begin, 0, count);
  end = std::clamp<int64_t>(end, begin, count);
  if (begin >= end) return std::optional<Discord>(std::nullopt);

  const LengthContext ctx = MakeLengthContext(mass, m);
  // One exact MASS profile per candidate row; rows fan across the pool and
  // reduce in ascending order with the strictly-greater combine, so the
  // result (including ties) matches a serial in-order scan at any thread
  // count.
  Phase2Partial best = ParallelMapReduce(
      begin, end, /*grain=*/1, EmptyPhase2(m),
      [&](int64_t b, int64_t e) {
        Phase2Partial acc = EmptyPhase2(m);
        std::vector<double> profile(static_cast<size_t>(count));
        for (int64_t i = b; i < e; ++i) {
          ctx.mass.DistanceProfileInto(ctx.Sub(i), m, ctx.stats,
                                       profile.data());
          acc.ops += 1;  // repurposed: profiles evaluated in this chunk
          double nn = kInf;
          for (int64_t j = 0; j < count; ++j) {
            if (std::llabs(j - i) < m) continue;
            nn = std::min(nn, profile[static_cast<size_t>(j)]);
          }
          if (std::isfinite(nn)) {
            Phase2Partial one = EmptyPhase2(m);
            one.best.position = i;
            one.best.distance = nn;
            acc = CombinePhase2(std::move(acc), one);
          }
        }
        return acc;
      },
      CombinePhase2);
  if (stats != nullptr) stats->distance_profiles += best.ops;
  if (best.best.position < 0) return std::optional<Discord>(std::nullopt);
  return std::optional<Discord>(best.best);
}

}  // namespace triad::discord
