// The benchmark program: runs one named workload in this process from a
// seed and prints one JSON result line.
//
//   perfbench --workload ucr_archive|long_period|fleet_stream --seed N
//             --seconds S --trace 0|1 [--small 1] [--work-dir DIR]
//
// The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// from the traced run. Progress and check failures go to stderr. The exit
// code is 0 whenever a result line was printed (a failed check reads as
// "correct": false), and 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace perfbench {

void Report::Fail(const std::string& what) {
  correct = false;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double HarrellDavisMedian(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const double a = (static_cast<double>(n) + 1.0) / 2.0;
  const double log_norm = 2.0 * std::lgamma(a) - std::lgamma(2.0 * a);
  const auto density = [&](double t) {
    if (t <= 0.0 || t >= 1.0) return 0.0;
    return std::exp((a - 1.0) * (std::log(t) + std::log1p(-t)) - log_norm);
  };
  // Weight of x_(i) is the Beta mass on [(i-1)/n, i/n] (Simpson's rule).
  constexpr int kSteps = 32;
  double total = 0.0, weight_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double lo = static_cast<double>(i) / static_cast<double>(n);
    const double h = 1.0 / (static_cast<double>(n) * kSteps);
    double mass = density(lo) + density(lo + kSteps * h);
    for (int k = 1; k < kSteps; ++k) {
      mass += (k % 2 ? 4.0 : 2.0) * density(lo + k * h);
    }
    mass *= h / 3.0;
    total += mass * v[i];
    weight_sum += mass;
  }
  return total / weight_sum;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// One metric as BENCHMARK.json declares it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints.
const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"points_per_s", "points/s"},
      {"score_ms_p50", "ms"},
      {"affiliation_f1", "ratio"},
  };
  return specs;
}

/// The per-layer metrics every traced run prints (0 where the workload does
/// not run that layer).
const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"trainer.fit_s", "s"},
      {"trainer.windows", "count"},
      {"trainer.fit_rate", "windows/s"},
      {"nn.forward_s", "s"},
      {"nn.backward_s", "s"},
      {"nn.step_s", "s"},
      {"features.extract_s", "s"},
      {"signal.period_s", "s"},
      {"detector.encode_s", "s"},
      {"detector.tri_window_s", "s"},
      {"detector.selection_s", "s"},
      {"detector.discord_s", "s"},
      {"detector.self_s", "s"},
      {"detector.search_points", "count"},
      {"discord.merlin_s", "s"},
      {"discord.restarts", "count"},
      {"discord.distance_profiles", "count"},
      {"discord.pointwise_ops", "count"},
      {"discord.mass_profile_s", "s"},
      {"voting.run_s", "s"},
      {"data.sanitize_s", "s"},
      {"data.repaired_samples", "count"},
      {"streaming.append_s", "s"},
      {"streaming.encode_hit_rate", "ratio"},
      {"streaming.merlin_hit_rate", "ratio"},
      {"streaming.memo_bypass", "count"},
      {"serve.ingest_us_p50", "us"},
      {"serve.ingest_us_p90", "us"},
      {"serve.ingest_s", "s"},
      {"serve.drain_s", "s"},
      {"serve.self_s", "s"},
      {"serve.chunk_ms_p90", "ms"},
      {"serve.batched_detects", "count"},
      {"serve.single_core_groups", "count"},
      {"serve.multi_core_groups", "count"},
      {"durability.wal_bytes", "bytes"},
      {"durability.snapshot_bytes", "bytes"},
      {"durability.checkpoint_s", "s"},
      {"durability.recover_s", "s"},
      {"durability.replayed_points", "count"},
      {"durability.model_load_s", "s"},
      {"unattributed_s", "s"},
      {"trace.scoring_wall_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return specs;
}

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload ucr_archive|long_period|"
               "fleet_stream --seed N --seconds S --trace 0|1 [--small 1] "
               "[--work-dir DIR]\n";
  return 2;
}

void PrintResult(const Report& report, bool trace) {
  const auto& specs = trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& values = trace ? report.per_layer : report.end_to_end;
  std::string json = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += std::string(i ? ", " : "") + "\"" + specs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + specs[i].unit +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--small") {
      args.small = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  Report report;
  if (args.workload == "ucr_archive") {
    report = RunUcrArchive(args);
  } else if (args.workload == "long_period") {
    report = RunLongPeriod(args);
  } else if (args.workload == "fleet_stream") {
    report = RunFleetStream(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  PrintResult(report, args.trace);
  return 0;
}
