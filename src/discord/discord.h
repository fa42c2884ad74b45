#ifndef TRIAD_DISCORD_DISCORD_H_
#define TRIAD_DISCORD_DISCORD_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "discord/mass.h"

/// \file
/// Variable-length discord discovery: the all-lengths sweep the detector
/// runs, the paper's comparison algorithms DRAG, MERLIN and MERLIN++, and
/// the range-restricted re-search primitive.
///
/// **MassContext reuse rules** (ARCHITECTURE.md §7/§8): every algorithm
/// here prices its distance work against one MassContext per series —
/// Merlin/MerlinPlusPlus build it internally and share it across the whole
/// length sweep (prefix sums serve every length's rolling stats; lengths
/// with the same padded FFT size share one series spectrum), while
/// DiscordInRange takes the context *by reference* so a caller re-searching
/// many ranges of the same series (changed-region tracking, streaming)
/// pays the series-side FFT and prefix sums once, not once per call. A
/// context is valid for a series snapshot: it never observes appends, so
/// when the underlying stream grows, build a new context over the new
/// buffer (cheap: O(n) prefix sums + one lazy FFT) or use
/// discord::StompStream, which maintains its own state under append.
/// Contexts are safe to share across pool workers (const methods only).

namespace triad::discord {

/// \brief A time-series discord: the subsequence whose nearest non-trivial
/// match is farthest away.
struct Discord {
  int64_t position = -1;  ///< start index of the discord subsequence
  int64_t length = 0;     ///< subsequence length m
  double distance = 0.0;  ///< z-normalized Euclidean distance to its NN
};

/// \brief Work counters for the algorithm-comparison benches.
struct DiscordStats {
  int64_t candidates_after_phase1 = 0;
  int64_t pointwise_distance_ops = 0;   ///< early-abandon scalar iterations
  int64_t distance_profiles = 0;        ///< full MASS profile evaluations
  int64_t restarts = 0;                 ///< DRAG re-runs after range failures
};

/// \brief Exact top-1 discord of length m via the full matrix profile.
/// O(n^2 log n); reference implementation for tests.
Result<Discord> BruteForceDiscord(const std::vector<double>& series,
                                  int64_t m);

/// \brief DRAG (Yankov, Keogh & Rebbapragada): two-phase discord discovery
/// with a range parameter r.
///
/// Returns the top discord whose nearest-neighbour distance is >= r, or
/// nullopt if no subsequence qualifies (the caller should lower r and retry,
/// which is exactly what MERLIN automates). `stats` may be null.
///
/// Phase 1 (candidate pruning) is order-dependent and runs serially; phase 2
/// refines each surviving candidate as an independent pool task, with an
/// ordered strictly-greater reduction that reproduces the serial tie-break.
Result<std::optional<Discord>> DragDiscord(const std::vector<double>& series,
                                           int64_t m, double r,
                                           DiscordStats* stats = nullptr);

/// \brief Result of a MERLIN run: the top discord for every length in the
/// requested range (lengths whose search degenerated are skipped).
struct MerlinResult {
  std::vector<Discord> discords;
  DiscordStats stats;
};

/// \brief MERLIN (Nakamura et al., ICDM'20): parameter-free discovery of the
/// top discord at every length in [min_length, max_length].
///
/// Each length is an independent DRAG search with its own deterministic
/// range control: r seeds just under 2*sqrt(m) and halves on failure until
/// a discord qualifies. Because DRAG returns the exact top-1 discord for
/// any admissible r, this finds the same discords as the paper's serial
/// r-prediction chain (which only saves restarts) — and it makes the
/// length sweep embarrassingly parallel. Lengths run as pool tasks on
/// DefaultPool() and results combine in ascending-length order, so output
/// is bit-identical at any TRIAD_NUM_THREADS (see ARCHITECTURE.md §3).
/// `length_step` > 1 searches every step-th length (a speed/coverage knob
/// used by TriAD's restricted search).
Result<MerlinResult> Merlin(const std::vector<double>& series,
                            int64_t min_length, int64_t max_length,
                            int64_t length_step = 1);

/// \brief MERLIN++-style accelerated variant: identical output, but the
/// phase-2 nearest-neighbour confirmation orders candidates' comparisons by
/// an Orchard-style reference-point lower bound so most distance
/// computations abandon early. Parallelized the same way as Merlin():
/// per-length tasks plus per-candidate phase-2 refinement, both with
/// thread-count-independent results.
Result<MerlinResult> MerlinPlusPlus(const std::vector<double>& series,
                                    int64_t min_length, int64_t max_length,
                                    int64_t length_step = 1);

/// \brief Exact top discord at every length in [min_length, max_length]
/// (every `length_step`-th) by one matrix-profile sweep per length — the
/// detection path's discord search (ARCHITECTURE.md §7).
///
/// Each length sweeps the half triangle j >= i + m row by row, keeping one
/// running dot product per diagonal (updated in O(1) per cell, recomputed
/// exactly every 64 rows) and the best correlation per row and column; no
/// range parameter, restarts or reference index. Flat windows (stddev
/// < 1e-12) never rank and are no window's neighbour. Rows whose swept
/// value lies within rounding slack of the best are re-ranked by the exact
/// ZNormDistanceEarlyAbandon scan, so the reported distance is bit-identical
/// to Merlin's, and exact ties go to the earliest position (the
/// BruteForceDiscord rule; Merlin may report the later window of a tie).
/// Lengths with no finite nearest-neighbour distance are skipped. Lengths
/// run one per pool lane with a deadline checkpoint each, so output is
/// bit-identical at any TRIAD_NUM_THREADS and SIMD tier. `stats` counts
/// the re-ranked rows (candidates_after_phase1) and their pointwise work;
/// restarts and distance_profiles stay 0.
Result<MerlinResult> SweepDiscords(const std::vector<double>& series,
                                   int64_t min_length, int64_t max_length,
                                   int64_t length_step = 1);

/// \brief Exact top discord of length m whose start position lies in
/// [begin, end) — the changed-region re-search primitive
/// (ARCHITECTURE.md §8).
///
/// Nearest-neighbour distances are measured against the FULL series held by
/// `mass` (one amortized MASS profile per candidate row, fanned across the
/// pool with an ordered reduction — bit-identical at any thread count), so
/// each candidate's NN distance equals the matrix-profile entry
/// BruteForceDiscord ranks; only the argmax is restricted to the range.
/// After an append touches profile rows [begin, end) (e.g.
/// StompStream::AppendResult's changed hull plus the new rows), re-ranking
/// that span against a previously kept best is enough to maintain the top
/// discord without a full re-search. `begin`/`end` are clamped to the valid
/// row range; returns nullopt when the clamped range is empty or no
/// candidate in it has a finite NN distance. `stats` (may be null)
/// accumulates the distance-profile count.
Result<std::optional<Discord>> DiscordInRange(const MassContext& mass,
                                              int64_t m, int64_t begin,
                                              int64_t end,
                                              DiscordStats* stats = nullptr);

}  // namespace triad::discord

#endif  // TRIAD_DISCORD_DISCORD_H_
