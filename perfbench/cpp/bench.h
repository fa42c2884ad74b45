#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// Command-line settings of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs that finish in seconds, for the benchmark's own tests.
  bool small = false;
  /// Scratch directory inside the checkout for checkpoints and the WAL.
  std::string work_dir = ".bench_build/run";
};

/// What one workload run reports. `correct` turns false on the first
/// failed check; every check failure is also printed to stderr.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  void Fail(const std::string& what);
};

Report RunUcrArchive(const Args& args);
Report RunLongPeriod(const Args& args);
Report RunFleetStream(const Args& args);

// ---- small helpers shared by the workloads ----

double Median(std::vector<double> v);
/// \brief Harrell-Davis estimate of the median: a weighted mean of every
/// order statistic, with Beta((n+1)/2, (n+1)/2) weights. The latency p50s
/// use it because their samples are few and clustered (Detect times group
/// by period), and the sample median jumps from one cluster to the next
/// when two middle samples swap.
double HarrellDavisMedian(std::vector<double> v);
/// Quantile by linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q);
/// Peak resident set size of this process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
