#ifndef PERFBENCH_ORACLES_H_
#define PERFBENCH_ORACLES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/detector.h"

/// \file Independent reference computations the benchmark checks the
/// program's outputs against. They share no code with the program: plain
/// loops written from the definitions, not copies of stored output.

namespace perfbench {

/// \brief Nearest non-trivial-neighbour distance of every length-m
/// subsequence of `x`, pair by pair in O(n^2 m).
///
/// Distances are z-normalised Euclidean with population standard
/// deviations. Flat rule: a window whose deviation is below 1e-12 is flat;
/// flat against non-flat is +inf and flat against flat is 0. A match is
/// non-trivial when the start positions differ by at least m.
std::vector<double> NaiveNearestNeighbour(const std::vector<double>& x,
                                          int64_t m);

/// Checks one reported discord of `region` against the naive profile: its
/// distance must be the largest finite nearest-neighbour distance at its
/// length, and its own position must have that distance. Returns an empty
/// string when it holds, else what differed.
std::string CheckDiscord(const std::vector<double>& region,
                         const triad::discord::Discord& discord);

/// \brief Eq. 8 voting recomputed from a DetectionResult's window and
/// discords: one vote from the selected window plus one per covering
/// discord, thresholded strictly above the mean of the nonzero votes; when
/// no predicted point falls inside the window (Fig. 15) the window itself
/// is predicted. Returns an empty string when `result.predictions` and
/// `result.vote_threshold` match, else what differed.
std::string CheckVoting(const triad::core::DetectionResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLES_H_
