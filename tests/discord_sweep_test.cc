// Differential tests for discord::SweepDiscords, the all-lengths sweep the
// detector runs: against the brute-force matrix profile and against MERLIN
// at every length, on seeded random, periodic and flat-run series; the
// earliest-position tie rule; bit-identity across thread counts, SIMD
// tiers and the metrics gate; the refresh rows carried across lengths
// against single-length calls; its span and cell counter; and the
// cooperative deadline.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/trace.h"
#include "discord/discord.h"
#include "discord/mass.h"

namespace triad::discord {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> RandomWalk(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> x(n);
  double v = 0.0;
  for (double& s : x) {
    v += rng.Normal();
    s = v;
  }
  return x;
}

std::vector<double> SineWithNoise(uint64_t seed, size_t n, double period) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / period) +
           rng.Normal(0.0, 0.05) + 3.0;
  }
  const size_t at = n / 2;
  for (size_t t = at; t < at + static_cast<size_t>(period) && t < n; ++t) {
    x[t] += 0.4 * std::sin(6.0 * kPi * static_cast<double>(t) / period);
  }
  return x;
}

// Sine plus noise with constant runs, each at a value taken from the
// series so that it does not survive prefix-sum cancellation.
std::vector<double> WithFlatRuns(uint64_t seed, size_t n) {
  std::vector<double> x = SineWithNoise(seed, n, 24.0);
  Rng rng(seed + 77);
  for (int r = 0; r < 3; ++r) {
    const size_t len = static_cast<size_t>(rng.UniformInt(6, 30));
    const size_t at =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n - len)));
    std::fill(x.begin() + static_cast<std::ptrdiff_t>(at),
              x.begin() + static_cast<std::ptrdiff_t>(at + len), x[at]);
  }
  return x;
}

// Exact nearest non-trivial-neighbour distance of window i, in the
// arithmetic MERLIN refines with (one full early-abandon scan).
double ExactNearestNeighbour(const std::vector<double>& x, int64_t m,
                             int64_t i) {
  const RollingStats stats = ComputeRollingStats(x, m);
  const int64_t count = static_cast<int64_t>(stats.mean.size());
  double nn = kInf;
  for (int64_t j = 0; j < count; ++j) {
    if (std::llabs(j - i) < m) continue;
    nn = std::min(nn, ZNormDistanceEarlyAbandon(
                          x.data() + i, stats.mean[static_cast<size_t>(i)],
                          stats.stddev[static_cast<size_t>(i)], x.data() + j,
                          stats.mean[static_cast<size_t>(j)],
                          stats.stddev[static_cast<size_t>(j)], m, nn));
  }
  return nn;
}

std::vector<std::vector<double>> DifferentialSeries() {
  return {RandomWalk(1, 180), RandomWalk(2, 260), SineWithNoise(3, 240, 20.0),
          SineWithNoise(4, 300, 33.0), WithFlatRuns(5, 220),
          WithFlatRuns(6, 280)};
}

TEST(SweepDiscordsTest, MatchesBruteForceAtEveryLength) {
  for (const std::vector<double>& x : DifferentialSeries()) {
    const int64_t max_len = static_cast<int64_t>(x.size()) / 2;
    auto sweep = SweepDiscords(x, 4, max_len);
    ASSERT_TRUE(sweep.ok());
    size_t k = 0;
    int64_t ties = 0;
    for (int64_t m = 4; m <= max_len; ++m) {
      auto brute = BruteForceDiscord(x, m);
      ASSERT_TRUE(brute.ok()) << "m=" << m;
      ASSERT_LT(k, sweep->discords.size()) << "m=" << m;
      const Discord& d = sweep->discords[k++];
      ASSERT_EQ(d.length, m);
      // Bit-equal to the exact distance at the brute-force position, and
      // within rounding of the brute-force (FFT) value.
      EXPECT_EQ(d.distance, ExactNearestNeighbour(x, m, brute->position))
          << "m=" << m;
      EXPECT_NEAR(d.distance, brute->distance,
                  1e-9 * std::max(1.0, brute->distance))
          << "m=" << m;
      // The same window, unless the two are an exact tie (the brute force
      // breaks it by its FFT rounding); the sweep then keeps the earlier.
      if (d.position != brute->position) {
        EXPECT_LT(d.position, brute->position) << "m=" << m;
        EXPECT_EQ(ExactNearestNeighbour(x, m, d.position), d.distance)
            << "m=" << m;
      }
      ties += d.position != brute->position;
    }
    EXPECT_EQ(k, sweep->discords.size());
    // Ties are the exception: near n/2 few pairs remain and mutual nearest
    // neighbours are common, elsewhere the windows agree.
    EXPECT_LT(ties * 5, max_len);
  }
}

TEST(SweepDiscordsTest, MatchesMerlinExceptAtExactTies) {
  for (const std::vector<double>& x : DifferentialSeries()) {
    const int64_t max_len = static_cast<int64_t>(x.size()) / 2;
    auto sweep = SweepDiscords(x, 4, max_len);
    auto merlin = Merlin(x, 4, max_len);
    ASSERT_TRUE(sweep.ok());
    ASSERT_TRUE(merlin.ok());
    ASSERT_EQ(sweep->discords.size(), merlin->discords.size());
    for (size_t k = 0; k < sweep->discords.size(); ++k) {
      const Discord& s = sweep->discords[k];
      const Discord& r = merlin->discords[k];
      ASSERT_EQ(s.length, r.length);
      EXPECT_EQ(s.distance, r.distance) << "m=" << s.length;
      if (s.position != r.position) {
        // A tie: MERLIN's window has the same exact distance, and the sweep
        // reports the earlier one.
        EXPECT_LT(s.position, r.position) << "m=" << s.length;
        EXPECT_EQ(ExactNearestNeighbour(x, r.length, r.position), r.distance)
            << "m=" << s.length;
      }
    }
  }
}

TEST(SweepDiscordsTest, MutualNearestNeighbourTieGoesToEarliestWindow) {
  // With n = 2m the only non-trivial pair is (0, m): both windows are each
  // other's nearest neighbour at bit-identical distance, every other window
  // has none, so the top discord is an exact tie.
  Rng rng(11);
  for (int64_t m : {5, 9, 16}) {
    std::vector<double> x(static_cast<size_t>(2 * m));
    for (double& v : x) v = rng.Normal();
    auto sweep = SweepDiscords(x, m, m);
    ASSERT_TRUE(sweep.ok());
    ASSERT_EQ(sweep->discords.size(), 1u);
    EXPECT_EQ(sweep->discords[0].position, 0) << "m=" << m;
    EXPECT_EQ(sweep->discords[0].distance, ExactNearestNeighbour(x, m, m));
    EXPECT_EQ(sweep->discords[0].distance, ExactNearestNeighbour(x, m, 0));
  }
}

TEST(SweepDiscordsTest, FlatWindowsNeverRank) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    const std::vector<double> x = WithFlatRuns(seed, 240);
    auto sweep = SweepDiscords(x, 4, 60);
    ASSERT_TRUE(sweep.ok());
    for (const Discord& d : sweep->discords) {
      const auto begin = x.begin() + d.position;
      EXPECT_FALSE(std::all_of(begin, begin + d.length,
                               [&](double v) { return v == *begin; }))
          << "m=" << d.length << " at " << d.position;
    }
  }
  // A series that is flat everywhere has no rankable window at any length.
  auto flat = SweepDiscords(std::vector<double>(64, 0.7), 4, 16);
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(flat->discords.empty());
}

TEST(SweepDiscordsTest, BitIdenticalAcrossThreadsAndSimdTiers) {
  const std::vector<double> x = SineWithNoise(31, 700, 45.0);
  ThreadPool serial(1), quad(4);
  MerlinResult reference;
  {
    ScopedDefaultPool scoped(&serial);
    auto r = SweepDiscords(x, 4, 120, 3);
    ASSERT_TRUE(r.ok());
    reference = *r;
  }
  ASSERT_FALSE(reference.discords.empty());
  auto expect_same = [&](const MerlinResult& other) {
    ASSERT_EQ(other.discords.size(), reference.discords.size());
    for (size_t k = 0; k < reference.discords.size(); ++k) {
      EXPECT_EQ(other.discords[k].position, reference.discords[k].position);
      EXPECT_EQ(other.discords[k].length, reference.discords[k].length);
      EXPECT_EQ(other.discords[k].distance, reference.discords[k].distance);
    }
    EXPECT_EQ(other.stats.pointwise_distance_ops,
              reference.stats.pointwise_distance_ops);
  };
  {
    ScopedDefaultPool scoped(&quad);
    auto r = SweepDiscords(x, 4, 120, 3);
    ASSERT_TRUE(r.ok());
    expect_same(*r);
  }
  {
    simd::ScopedForceLevel scalar(simd::Level::kScalar);
    ScopedDefaultPool scoped(&quad);
    auto r = SweepDiscords(x, 4, 120, 3);
    ASSERT_TRUE(r.ok());
    expect_same(*r);
  }
}

// A range call carries each run's exact refresh rows from one length to
// the next; a single-length call always builds them from scratch. The two
// must agree bit for bit at every length, step and thread count. n >= 900
// gives every length several refresh rows and the range several runs.
TEST(SweepDiscordsTest, CarriedRefreshRowsMatchSingleLengthCalls) {
  const int64_t lo = 4, hi = 150;
  ThreadPool serial(1), three(3), quad(4);
  for (const std::vector<double>& x :
       {SineWithNoise(61, 960, 40.0), RandomWalk(62, 920)}) {
    for (int64_t step : {1, 3}) {
      std::vector<Discord> fresh;
      int64_t candidates = 0, ops = 0;
      {
        ScopedDefaultPool scoped(&serial);
        for (int64_t m = lo; m <= hi; m += step) {
          auto one = SweepDiscords(x, m, m, 1);
          ASSERT_TRUE(one.ok()) << "m=" << m;
          ASSERT_LE(one->discords.size(), 1u) << "m=" << m;
          fresh.insert(fresh.end(), one->discords.begin(),
                       one->discords.end());
          candidates += one->stats.candidates_after_phase1;
          ops += one->stats.pointwise_distance_ops;
        }
      }
      ASSERT_FALSE(fresh.empty());
      for (ThreadPool* pool : {&serial, &three, &quad}) {
        ScopedDefaultPool scoped(pool);
        auto range = SweepDiscords(x, lo, hi, step);
        ASSERT_TRUE(range.ok());
        ASSERT_EQ(range->discords.size(), fresh.size())
            << "step=" << step << " threads=" << pool->num_threads();
        for (size_t k = 0; k < fresh.size(); ++k) {
          EXPECT_EQ(range->discords[k].length, fresh[k].length);
          EXPECT_EQ(range->discords[k].position, fresh[k].position)
              << "m=" << fresh[k].length << " step=" << step;
          EXPECT_EQ(range->discords[k].distance, fresh[k].distance)
              << "m=" << fresh[k].length << " step=" << step;
        }
        EXPECT_EQ(range->stats.candidates_after_phase1, candidates);
        EXPECT_EQ(range->stats.pointwise_distance_ops, ops);
      }
    }
  }
}

TEST(SweepDiscordsTest, ExpiredDeadlineStopsTheSweep) {
  const std::vector<double> x = SineWithNoise(41, 300, 30.0);
  DeadlinePtr deadline = MakeDeadline(60.0);
  deadline->deadline = std::chrono::steady_clock::now();  // already past
  ScopedPassDeadline scoped(deadline);
  auto sweep = SweepDiscords(x, 4, 60);
  ASSERT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SweepDiscordsTest, RecordsOneSpanAndCountsCells) {
  const std::vector<double> x = SineWithNoise(51, 200, 25.0);
  MerlinResult on;
  {
    metrics::ScopedEnable enable(true);
    metrics::Registry::Global().ResetAll();
    trace::TraceBuffer::Global().Clear();
    auto sweep = SweepDiscords(x, 4, 40, 2);
    ASSERT_TRUE(sweep.ok());
    on = *sweep;
    // Cells are the half triangle j >= i + m: rows = n - 2m + 1 per length.
    uint64_t cells = 0;
    for (uint64_t m = 4; m <= 40; m += 2) {
      const uint64_t rows = x.size() - 2 * m + 1;
      cells += rows * (rows + 1) / 2;
    }
    auto& registry = metrics::Registry::Global();
    EXPECT_EQ(registry.counter("discord.sweep_cells")->value(), cells);
    EXPECT_EQ(registry.counter("merlin.restarts")->value(), 0u);
    int spans = 0;
    for (const auto& span : trace::TraceBuffer::Global().Snapshot()) {
      spans += std::string(span.name) == "discord.sweep";
    }
    EXPECT_EQ(spans, 1);
  }
  metrics::ScopedEnable disable(false);
  auto off = SweepDiscords(x, 4, 40, 2);
  ASSERT_TRUE(off.ok());
  ASSERT_EQ(off->discords.size(), on.discords.size());
  for (size_t k = 0; k < on.discords.size(); ++k) {
    EXPECT_EQ(off->discords[k].position, on.discords[k].position);
    EXPECT_EQ(off->discords[k].distance, on.discords[k].distance);
  }
}

TEST(SweepDiscordsTest, RejectsInvalidRanges) {
  std::vector<double> x(100, 0.0);
  EXPECT_FALSE(SweepDiscords(x, 10, 5).ok());
  EXPECT_FALSE(SweepDiscords(x, 1, 10).ok());
  EXPECT_FALSE(SweepDiscords(x, 60, 70).ok());  // 2m > n
  EXPECT_FALSE(SweepDiscords(x, 4, 10, 0).ok());
}

}  // namespace
}  // namespace triad::discord
