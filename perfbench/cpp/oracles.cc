#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kFlat = 1e-12;

bool Close(double a, double b) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::fabs(a - b) <= 1e-6 * std::max(1.0, std::fabs(b));
}

}  // namespace

std::vector<double> NaiveNearestNeighbour(const std::vector<double>& x,
                                          int64_t m) {
  const int64_t n = static_cast<int64_t>(x.size());
  const int64_t count = n - m + 1;
  if (m < 1 || count < 1) return {};
  // Each window z-normalised once (two-pass mean and deviation).
  std::vector<double> z(static_cast<size_t>(count * m));
  std::vector<char> flat(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    double mean = 0.0;
    for (int64_t k = 0; k < m; ++k) mean += x[static_cast<size_t>(i + k)];
    mean /= static_cast<double>(m);
    double var = 0.0;
    for (int64_t k = 0; k < m; ++k) {
      const double d = x[static_cast<size_t>(i + k)] - mean;
      var += d * d;
    }
    const double sd = std::sqrt(var / static_cast<double>(m));
    flat[static_cast<size_t>(i)] = sd < kFlat;
    for (int64_t k = 0; k < m; ++k) {
      z[static_cast<size_t>(i * m + k)] =
          sd < kFlat ? 0.0 : (x[static_cast<size_t>(i + k)] - mean) / sd;
    }
  }
  std::vector<double> nn(static_cast<size_t>(count), kInf);
  for (int64_t i = 0; i < count; ++i) {
    for (int64_t j = i + m; j < count; ++j) {
      double d;
      const bool fi = flat[static_cast<size_t>(i)];
      const bool fj = flat[static_cast<size_t>(j)];
      if (fi || fj) {
        d = (fi && fj) ? 0.0 : kInf;
      } else {
        double acc = 0.0;
        const double* a = &z[static_cast<size_t>(i * m)];
        const double* b = &z[static_cast<size_t>(j * m)];
        for (int64_t k = 0; k < m; ++k) acc += (a[k] - b[k]) * (a[k] - b[k]);
        d = std::sqrt(acc);
      }
      nn[static_cast<size_t>(i)] = std::min(nn[static_cast<size_t>(i)], d);
      nn[static_cast<size_t>(j)] = std::min(nn[static_cast<size_t>(j)], d);
    }
  }
  return nn;
}

std::string CheckDiscord(const std::vector<double>& region,
                         const triad::discord::Discord& discord) {
  std::ostringstream why;
  const std::vector<double> nn = NaiveNearestNeighbour(region, discord.length);
  if (discord.position < 0 ||
      discord.position >= static_cast<int64_t>(nn.size())) {
    why << "discord at " << discord.position << " (m=" << discord.length
        << ") lies outside the region of " << region.size() << " points";
    return why.str();
  }
  double best = -kInf;
  for (double d : nn) {
    if (std::isfinite(d)) best = std::max(best, d);
  }
  const double own = nn[static_cast<size_t>(discord.position)];
  if (!Close(discord.distance, best) || !Close(own, discord.distance)) {
    why.precision(17);
    why << "m=" << discord.length << ": reported distance "
        << discord.distance << " at " << discord.position
        << ", naive top-1 distance " << best << ", naive distance there "
        << own;
  }
  return why.str();
}

std::string CheckVoting(const triad::core::DetectionResult& result) {
  const int64_t n = static_cast<int64_t>(result.predictions.size());
  if (result.selected_window < 0) return "no window was selected";
  const int64_t w_begin =
      result.window_starts[static_cast<size_t>(result.selected_window)];
  const int64_t w_end = std::min(n, w_begin + result.window_length);
  std::vector<double> votes(static_cast<size_t>(n), 0.0);
  for (int64_t i = std::max<int64_t>(0, w_begin); i < w_end; ++i) {
    votes[static_cast<size_t>(i)] += 1.0;
  }
  for (const auto& d : result.discords) {
    for (int64_t i = std::max<int64_t>(0, d.position);
         i < std::min(n, d.position + d.length); ++i) {
      votes[static_cast<size_t>(i)] += 1.0;
    }
  }
  double sum = 0.0;
  int64_t nonzero = 0;
  for (double v : votes) {
    if (v > 0.0) {
      sum += v;
      ++nonzero;
    }
  }
  const double threshold =
      nonzero == 0 ? 0.0 : sum / static_cast<double>(nonzero);
  std::vector<int> predictions(static_cast<size_t>(n), 0);
  bool inside = false;
  for (int64_t i = 0; i < n; ++i) {
    predictions[static_cast<size_t>(i)] =
        votes[static_cast<size_t>(i)] > threshold ? 1 : 0;
    if (predictions[static_cast<size_t>(i)] != 0 && i >= w_begin &&
        i < w_end) {
      inside = true;
    }
  }
  if (nonzero > 0 && !inside) {
    std::fill(predictions.begin(), predictions.end(), 0);
    for (int64_t i = std::max<int64_t>(0, w_begin); i < w_end; ++i) {
      predictions[static_cast<size_t>(i)] = 1;
    }
  }
  std::ostringstream why;
  if (threshold != result.vote_threshold) {
    why.precision(17);
    why << "vote threshold " << result.vote_threshold << ", recomputed "
        << threshold << "; ";
  }
  if (predictions != result.predictions) {
    int64_t diff = 0;
    for (int64_t i = 0; i < n; ++i) {
      diff += predictions[static_cast<size_t>(i)] !=
              result.predictions[static_cast<size_t>(i)];
    }
    why << diff << " of " << n << " predictions differ from Eq. 8";
  }
  if (inside == result.exception_applied && nonzero > 0) {
    why << "; exception rule flag disagrees";
  }
  return why.str();
}

}  // namespace perfbench
