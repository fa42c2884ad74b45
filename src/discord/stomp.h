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

}  // namespace triad::discord

#endif  // TRIAD_DISCORD_STOMP_H_
