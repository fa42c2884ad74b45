#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "discord/discord.h"
#include "discord/mass.h"
#include "signal/windows.h"

namespace triad::discord {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Periodic series with one anomalous cycle: the canonical discord workload.
std::vector<double> PlantedAnomalySeries(size_t n, double period,
                                         size_t anomaly_at, size_t anomaly_len,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / period) +
           rng.Normal(0.0, 0.05);
  }
  for (size_t t = anomaly_at; t < anomaly_at + anomaly_len && t < n; ++t) {
    // Frequency-doubled segment.
    x[t] = std::sin(4.0 * kPi * static_cast<double>(t) / period) +
           rng.Normal(0.0, 0.05);
  }
  return x;
}

// ---------- rolling stats / MASS ----------

TEST(RollingStatsTest, MatchesDirectComputation) {
  Rng rng(1);
  std::vector<double> x(60);
  for (auto& v : x) v = rng.Normal(2.0, 3.0);
  const int64_t m = 12;
  const RollingStats stats = ComputeRollingStats(x, m);
  ASSERT_EQ(stats.mean.size(), x.size() - m + 1);
  for (size_t i = 0; i + m <= x.size(); ++i) {
    double mu = 0.0;
    for (int64_t j = 0; j < m; ++j) mu += x[i + static_cast<size_t>(j)];
    mu /= m;
    double ss = 0.0;
    for (int64_t j = 0; j < m; ++j) {
      const double d = x[i + static_cast<size_t>(j)] - mu;
      ss += d * d;
    }
    EXPECT_NEAR(stats.mean[i], mu, 1e-9);
    EXPECT_NEAR(stats.stddev[i], std::sqrt(ss / m), 1e-8);
  }
}

TEST(MassTest, MatchesNaiveZNormDistance) {
  Rng rng(2);
  std::vector<double> series(80);
  for (auto& v : series) v = rng.Normal();
  std::vector<double> query(series.begin() + 10, series.begin() + 26);
  const std::vector<double> profile = MassDistanceProfile(series, query);
  ASSERT_EQ(profile.size(), series.size() - query.size() + 1);
  const std::vector<double> qz = signal::ZNormalized(query);
  for (size_t i = 0; i < profile.size(); ++i) {
    const std::vector<double> wz = signal::ZNormalized(std::vector<double>(
        series.begin() + i, series.begin() + i + query.size()));
    EXPECT_NEAR(profile[i], signal::EuclideanDistance(qz, wz), 1e-6) << i;
  }
}

TEST(MassTest, SelfMatchHasZeroDistance) {
  Rng rng(3);
  std::vector<double> series(50);
  for (auto& v : series) v = rng.Normal();
  std::vector<double> query(series.begin() + 20, series.begin() + 30);
  const std::vector<double> profile = MassDistanceProfile(series, query);
  EXPECT_NEAR(profile[20], 0.0, 1e-6);
}

TEST(MassTest, FlatWindowsGetInfiniteDistance) {
  std::vector<double> series(40, 0.0);
  for (size_t i = 20; i < 40; ++i) series[i] = std::sin(0.7 * i);
  std::vector<double> query(series.begin() + 25, series.begin() + 35);
  const std::vector<double> profile = MassDistanceProfile(series, query);
  // A flat window has no z-normalized shape: +inf marks it incomparable so
  // discord ranking excludes it (ARCHITECTURE.md §5).
  EXPECT_TRUE(std::isinf(profile[0]));
  EXPECT_GT(profile[0], 0.0);
}

TEST(MassTest, FlatQueryAgainstFlatWindowIsZero) {
  std::vector<double> series(40, 2.5);
  for (size_t i = 20; i < 40; ++i) series[i] = std::sin(0.7 * i) + 2.5;
  std::vector<double> query(series.begin() + 0, series.begin() + 10);  // flat
  const std::vector<double> profile = MassDistanceProfile(series, query);
  EXPECT_EQ(profile[0], 0.0);               // flat vs flat: identical shape
  EXPECT_TRUE(std::isinf(profile[25]));     // flat vs structured: excluded
}

// The shape of perfbench's plateau probe: sine plus noise with a 40-point
// plateau held at series[200], a value that does not survive prefix-sum
// cancellation (unlike the 0.0 and 2.5 of the Flat* tests above).
std::vector<double> PlateauSeries() {
  std::vector<double> series(480);
  Rng rng(7);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = std::sin(2.0 * kPi * static_cast<double>(t) / 40.0) +
                rng.Normal(0.0, 0.05);
  }
  std::fill(series.begin() + 200, series.begin() + 240, series[200]);
  return series;
}

// Nearest non-trivial-neighbour distance per window from the definition:
// two-pass stats, flat (stddev < 1e-12) against flat is 0, flat against
// non-flat is +inf.
std::vector<double> NaiveNearestNeighbour(const std::vector<double>& x,
                                          int64_t m) {
  const int64_t count = static_cast<int64_t>(x.size()) - m + 1;
  std::vector<std::vector<double>> z(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const std::vector<double> w(x.begin() + i, x.begin() + i + m);
    double mu = 0.0;
    for (double v : w) mu += v;
    mu /= static_cast<double>(m);
    double ss = 0.0;
    for (double v : w) ss += (v - mu) * (v - mu);
    const double sd = std::sqrt(ss / static_cast<double>(m));
    if (sd < 1e-12) continue;  // flat: empty z marks it
    for (double v : w) z[static_cast<size_t>(i)].push_back((v - mu) / sd);
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> nn(static_cast<size_t>(count), inf);
  for (int64_t i = 0; i < count; ++i) {
    for (int64_t j = i + m; j < count; ++j) {
      const auto& a = z[static_cast<size_t>(i)];
      const auto& b = z[static_cast<size_t>(j)];
      double d = inf;
      if (a.empty() && b.empty()) {
        d = 0.0;
      } else if (!a.empty() && !b.empty()) {
        double acc = 0.0;
        for (int64_t k = 0; k < m; ++k) {
          acc += (a[static_cast<size_t>(k)] - b[static_cast<size_t>(k)]) *
                 (a[static_cast<size_t>(k)] - b[static_cast<size_t>(k)]);
        }
        d = std::sqrt(acc);
      }
      nn[static_cast<size_t>(i)] = std::min(nn[static_cast<size_t>(i)], d);
      nn[static_cast<size_t>(j)] = std::min(nn[static_cast<size_t>(j)], d);
    }
  }
  return nn;
}

TEST(FlatRuleTest, ExactlyConstantWindowsHaveZeroStddev) {
  const std::vector<double> x = PlateauSeries();
  for (int64_t m : {4, 17, 40, 41}) {
    const RollingStats stats = ComputeRollingStats(x, m);
    const RollingStats shared = MassContext(x).Stats(m);
    for (size_t i = 0; i < stats.stddev.size(); ++i) {
      const bool constant = i >= 200 && i + static_cast<size_t>(m) <= 240;
      if (constant) {
        EXPECT_EQ(stats.stddev[i], 0.0) << "m=" << m << " at " << i;
      } else {
        EXPECT_GT(stats.stddev[i], 1e-6) << "m=" << m << " at " << i;
      }
      EXPECT_EQ(stats.stddev[i], shared.stddev[i]);
    }
  }
}

TEST(FlatRuleTest, PlateauNeverRanksAtAnyLength) {
  const std::vector<double> x = PlateauSeries();
  auto merlin = Merlin(x, 4, 48);
  auto plus_plus = MerlinPlusPlus(x, 4, 48);
  auto sweep = SweepDiscords(x, 4, 48);
  ASSERT_TRUE(merlin.ok());
  ASSERT_TRUE(plus_plus.ok());
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(merlin->discords.size(), 45u);
  ASSERT_EQ(plus_plus->discords.size(), 45u);
  ASSERT_EQ(sweep->discords.size(), 45u);
  for (int64_t m = 4; m <= 48; ++m) {
    const std::vector<double> nn = NaiveNearestNeighbour(x, m);
    double top = -1.0;
    for (double d : nn) {
      if (std::isfinite(d)) top = std::max(top, d);
    }
    auto brute = BruteForceDiscord(x, m);
    ASSERT_TRUE(brute.ok());
    const size_t k = static_cast<size_t>(m - 4);
    for (const Discord& d : {merlin->discords[k], plus_plus->discords[k],
                             sweep->discords[k], *brute}) {
      ASSERT_EQ(d.length, m);
      EXPECT_NEAR(d.distance, top, 1e-6) << "m=" << m << " at " << d.position;
      EXPECT_NEAR(nn[static_cast<size_t>(d.position)], d.distance, 1e-6)
          << "m=" << m << " at " << d.position;
    }
  }
}

TEST(EarlyAbandonTest, ExactWhenNotAbandoned) {
  Rng rng(4);
  std::vector<double> a(20), b(20);
  for (auto& v : a) v = rng.Normal();
  for (auto& v : b) v = rng.Normal();
  const RollingStats sa = ComputeRollingStats(a, 20);
  const RollingStats sb = ComputeRollingStats(b, 20);
  const double d = ZNormDistanceEarlyAbandon(
      a.data(), sa.mean[0], sa.stddev[0], b.data(), sb.mean[0], sb.stddev[0],
      20, 1e18);
  EXPECT_NEAR(d,
              signal::EuclideanDistance(signal::ZNormalized(a),
                                        signal::ZNormalized(b)),
              1e-9);
}

TEST(EarlyAbandonTest, AbandonedValueIsLowerBound) {
  Rng rng(5);
  std::vector<double> a(30), b(30);
  for (auto& v : a) v = rng.Normal();
  for (auto& v : b) v = rng.Normal();
  const RollingStats sa = ComputeRollingStats(a, 30);
  const RollingStats sb = ComputeRollingStats(b, 30);
  const double exact = ZNormDistanceEarlyAbandon(
      a.data(), sa.mean[0], sa.stddev[0], b.data(), sb.mean[0], sb.stddev[0],
      30, 1e18);
  const double abandoned = ZNormDistanceEarlyAbandon(
      a.data(), sa.mean[0], sa.stddev[0], b.data(), sb.mean[0], sb.stddev[0],
      30, exact * 0.1);
  EXPECT_LE(abandoned, exact + 1e-9);
  EXPECT_GT(abandoned, exact * 0.1);  // exceeded the abandon threshold
}

// ---------- discord algorithms ----------

TEST(BruteForceTest, FindsPlantedAnomaly) {
  const std::vector<double> x = PlantedAnomalySeries(600, 40, 300, 40, 6);
  auto discord = BruteForceDiscord(x, 40);
  ASSERT_TRUE(discord.ok());
  EXPECT_NEAR(static_cast<double>(discord->position), 300.0, 25.0);
}

TEST(BruteForceTest, RejectsDegenerateInputs) {
  std::vector<double> x(20, 1.0);
  EXPECT_FALSE(BruteForceDiscord(x, 1).ok());
  EXPECT_FALSE(BruteForceDiscord(x, 15).ok());  // 2m > n
}

TEST(DragTest, AgreesWithBruteForceWhenRangeAdmits) {
  const std::vector<double> x = PlantedAnomalySeries(400, 25, 200, 25, 7);
  const int64_t m = 25;
  auto brute = BruteForceDiscord(x, m);
  ASSERT_TRUE(brute.ok());
  // With r slightly below the true top discord distance, DRAG must find the
  // same discord.
  DiscordStats stats;
  auto drag = DragDiscord(x, m, brute->distance * 0.95, &stats);
  ASSERT_TRUE(drag.ok());
  ASSERT_TRUE(drag->has_value());
  EXPECT_EQ((*drag)->position, brute->position);
  EXPECT_NEAR((*drag)->distance, brute->distance, 1e-6);
  EXPECT_GT(stats.candidates_after_phase1, 0);
}

TEST(DragTest, ReturnsEmptyWhenRangeTooHigh) {
  const std::vector<double> x = PlantedAnomalySeries(400, 25, 200, 25, 8);
  auto drag = DragDiscord(x, 25, 1e6);
  ASSERT_TRUE(drag.ok());
  EXPECT_FALSE(drag->has_value());
}

class MerlinVariantTest : public ::testing::TestWithParam<bool> {};

TEST_P(MerlinVariantTest, FindsPlantedAnomalyAcrossLengths) {
  const bool plus_plus = GetParam();
  const std::vector<double> x = PlantedAnomalySeries(500, 30, 250, 30, 9);
  auto result = plus_plus ? MerlinPlusPlus(x, 20, 40, 5)
                          : Merlin(x, 20, 40, 5);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->discords.empty());
  // Most discord hits should localize near the planted anomaly.
  int near = 0;
  for (const Discord& d : result->discords) {
    if (std::llabs(d.position - 250) < 60) ++near;
  }
  EXPECT_GE(near * 2, static_cast<int>(result->discords.size()));
}

INSTANTIATE_TEST_SUITE_P(Variants, MerlinVariantTest,
                         ::testing::Values(false, true));

TEST(MerlinTest, PlusPlusMatchesMerlinExactly) {
  const std::vector<double> x = PlantedAnomalySeries(400, 25, 180, 30, 10);
  auto base = Merlin(x, 15, 35, 4);
  auto fast = MerlinPlusPlus(x, 15, 35, 4);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(fast.ok());
  ASSERT_EQ(base->discords.size(), fast->discords.size());
  for (size_t i = 0; i < base->discords.size(); ++i) {
    EXPECT_EQ(base->discords[i].position, fast->discords[i].position) << i;
    EXPECT_EQ(base->discords[i].length, fast->discords[i].length) << i;
    EXPECT_NEAR(base->discords[i].distance, fast->discords[i].distance, 1e-6);
  }
}

TEST(MerlinTest, PlusPlusDoesLessPointwiseWork) {
  const std::vector<double> x = PlantedAnomalySeries(1200, 40, 600, 40, 11);
  auto base = Merlin(x, 30, 50, 10);
  auto fast = MerlinPlusPlus(x, 30, 50, 10);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_LT(fast->stats.pointwise_distance_ops,
            base->stats.pointwise_distance_ops);
}

TEST(MerlinTest, DiscordLengthsFollowRequestedGrid) {
  const std::vector<double> x = PlantedAnomalySeries(500, 30, 250, 30, 12);
  auto result = Merlin(x, 20, 32, 4);
  ASSERT_TRUE(result.ok());
  for (const Discord& d : result->discords) {
    EXPECT_EQ((d.length - 20) % 4, 0);
    EXPECT_GE(d.length, 20);
    EXPECT_LE(d.length, 32);
  }
}

TEST(MerlinTest, RejectsInvalidRanges) {
  std::vector<double> x(100, 0.0);
  EXPECT_FALSE(Merlin(x, 10, 5).ok());
  EXPECT_FALSE(Merlin(x, 1, 10).ok());
  EXPECT_FALSE(Merlin(x, 60, 70).ok());  // 2m > n
}

TEST(MatrixProfileTest, SymmetricSeriesHasLowProfileEverywhere) {
  // A perfectly periodic series: every subsequence has a near-twin.
  std::vector<double> x(300);
  for (size_t t = 0; t < x.size(); ++t) {
    x[t] = std::sin(2.0 * kPi * static_cast<double>(t) / 30.0);
  }
  const std::vector<double> profile = MatrixProfileNaive(x, 30);
  for (double v : profile) EXPECT_LT(v, 0.2);
}

// ---------- DiscordInRange (changed-region re-search) ----------

TEST(DiscordInRangeTest, FullRangeMatchesBruteForce) {
  const std::vector<double> x = PlantedAnomalySeries(400, 40, 200, 40, 11);
  const int64_t m = 32;
  auto brute = BruteForceDiscord(x, m);
  ASSERT_TRUE(brute.ok());
  const MassContext mass(x);
  DiscordStats stats;
  auto ranged = DiscordInRange(mass, m, 0,
                               static_cast<int64_t>(x.size()), &stats);
  ASSERT_TRUE(ranged.ok());
  ASSERT_TRUE(ranged->has_value());
  EXPECT_EQ((*ranged)->position, brute->position);
  EXPECT_NEAR((*ranged)->distance, brute->distance, 1e-9);
  EXPECT_GT(stats.distance_profiles, 0);
}

// A sub-range result is exactly the range-filtered argmax of the matrix
// profile: NN distances come from the full series even for candidates near
// the range edges.
TEST(DiscordInRangeTest, SubRangeIsFilteredProfileArgmax) {
  const std::vector<double> x = PlantedAnomalySeries(350, 35, 180, 35, 12);
  const int64_t m = 28;
  const std::vector<double> profile = MatrixProfileNaive(x, m);
  const MassContext mass(x);
  for (const auto [begin, end] :
       {std::pair<int64_t, int64_t>{0, 60},
        std::pair<int64_t, int64_t>{150, 230},
        std::pair<int64_t, int64_t>{250, 1000}}) {  // end clamps to count
    auto ranged = DiscordInRange(mass, m, begin, end);
    ASSERT_TRUE(ranged.ok());
    int64_t expect_pos = -1;
    double expect_d = -1.0;
    const int64_t hi =
        std::min<int64_t>(end, static_cast<int64_t>(profile.size()));
    for (int64_t i = begin; i < hi; ++i) {
      const double d = profile[static_cast<size_t>(i)];
      if (std::isfinite(d) && d > expect_d) {
        expect_d = d;
        expect_pos = i;
      }
    }
    ASSERT_TRUE(ranged->has_value());
    EXPECT_EQ((*ranged)->position, expect_pos);
    EXPECT_NEAR((*ranged)->distance, expect_d, 1e-6);
  }
}

TEST(DiscordInRangeTest, EmptyOrInvalidRanges) {
  const std::vector<double> x = PlantedAnomalySeries(200, 25, 100, 25, 13);
  const MassContext mass(x);
  auto empty = DiscordInRange(mass, 20, 50, 50);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());
  auto inverted = DiscordInRange(mass, 20, 80, 40);
  ASSERT_TRUE(inverted.ok());
  EXPECT_FALSE(inverted->has_value());
  EXPECT_FALSE(DiscordInRange(mass, 1, 0, 10).ok());
  EXPECT_FALSE(DiscordInRange(mass, 150, 0, 10).ok());
}

}  // namespace
}  // namespace triad::discord
