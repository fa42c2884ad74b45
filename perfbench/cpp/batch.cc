// The two offline workloads: ucr_archive (Fit then Detect per dataset on
// one thread, training the larger share) and long_period (Detect at UCR
// periods on four threads, where the discord sweep is nearly all the work).

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/augmentation.h"
#include "core/detector.h"
#include "core/features.h"
#include "core/model.h"
#include "core/voting.h"
#include "data/sanitize.h"
#include "data/ucr_generator.h"
#include "discord/discord.h"
#include "discord/mass.h"
#include "eval/metrics.h"
#include "nn/optimizer.h"
#include "nn/variable.h"
#include "oracles.h"
#include "signal/decompose.h"

namespace perfbench {

namespace {

using triad::Rng;
using triad::core::DetectionResult;
using triad::core::TriadConfig;
using triad::core::TriadDetector;
using triad::data::UcrDataset;

const char* const kFamilies[] = {"sine", "ecg", "saw", "square"};

// Every data::AnomalyType but kDuration. A duration anomaly is a stuck
// plateau, and the discord search mis-ranks exactly flat windows (see
// PlateauProbe), so a plateau inside the search region fails the discord
// oracle on some seeds and not others. The fault shows instead in every
// run through PlateauProbe, on an input that does not depend on the seed.
const triad::data::AnomalyType kTypeCycle[] = {
    triad::data::AnomalyType::kNoise,      triad::data::AnomalyType::kSeasonal,
    triad::data::AnomalyType::kTrend,      triad::data::AnomalyType::kLevelShift,
    triad::data::AnomalyType::kContextual, triad::data::AnomalyType::kPoint,
};
constexpr int kTypes = 6;

/// One offline workload's shape.
struct BatchPlan {
  int threads = 1;
  TriadConfig config;
  /// Generation period of each dataset; its index also picks the anomaly
  /// type (kTypeCycle) and signal family.
  std::vector<int64_t> periods;
  int64_t train_periods = 16;
  int64_t test_periods = 12;
  /// true: Fit is part of the timed phase (ucr_archive); false: every Fit
  /// is set-up and only Detect is timed (long_period).
  bool fit_timed = true;
  /// Discord lengths checked against the naive oracle per Detect.
  int discord_checks = 2;
  /// Datasets per round; a run is whole rounds, each with one PlateauProbe.
  size_t round_size = 6;
};

constexpr int kSetups = 5;
constexpr uint64_t kStructureSeed = 20240401;
/// Standard deviation of the per-seed observation noise (the generator's
/// own noise level is 0.04).
constexpr double kSeedNoise = 0.01;

/// The datasets of one run. Their structure (signal shapes, anomaly
/// placement and length, the noise already in the generator's output) is
/// fixed; the seed adds its own observation noise on top. The discord
/// sweep's cost swings by a factor of three or more with where an anomaly
/// falls and how the pruning happens to go, so inputs redrawn per seed
/// would make every throughput figure mostly a measure of the draw.
std::vector<UcrDataset> MakeDatasets(const BatchPlan& plan, uint64_t seed) {
  Rng structure(kStructureSeed);
  Rng noise(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<UcrDataset> out;
  for (size_t i = 0; i < plan.periods.size(); ++i) {
    triad::data::UcrGeneratorOptions options;
    options.min_period = options.max_period = plan.periods[i];
    options.min_train_periods = options.max_train_periods = plan.train_periods;
    options.min_test_periods = options.max_test_periods = plan.test_periods;
    Rng rng = structure.Fork();
    UcrDataset ds = triad::data::MakeUcrDataset(
        options, static_cast<int64_t>(i), kTypeCycle[i % kTypes],
        kFamilies[(i / kTypes) % 4], &rng);
    for (double& v : ds.train) v += noise.Normal(0.0, kSeedNoise);
    for (double& v : ds.test) v += noise.Normal(0.0, kSeedNoise);
    out.push_back(std::move(ds));
  }
  return out;
}

/// Training-shaped windows of a fitted detector: the first batch of its
/// segmentation of the training series.
std::vector<std::vector<double>> TrainingBatch(const TriadDetector& detector,
                                               const std::vector<double>& train) {
  const int64_t length = detector.window_length();
  const int64_t stride = detector.stride();
  std::vector<std::vector<double>> windows;
  for (int64_t s = 0; s + length <= static_cast<int64_t>(train.size()) &&
                      static_cast<int64_t>(windows.size()) <
                          detector.config().batch_size;
       s += stride) {
    windows.emplace_back(train.begin() + s, train.begin() + s + length);
  }
  return windows;
}

/// Traced-run probes of the training layers on one fitted dataset: period
/// estimation, feature extraction, and one forward / backward / Adam step
/// of a fresh model on a training-shaped batch.
void ProbeTraining(const TriadDetector& detector,
                   const std::vector<double>& train, Tracer* tracer) {
  using triad::core::Domain;
  {
    Scope span(tracer, "signal.period");
    volatile int64_t period = triad::signal::EstimatePeriod(train);
    (void)period;
  }
  const auto windows = TrainingBatch(detector, train);
  if (windows.size() < 2) return;
  std::vector<std::vector<double>> augmented = windows;
  Rng rng(detector.config().seed);
  for (auto& w : augmented) triad::core::AugmentWindow(&w, &rng);
  Rng init(detector.config().seed);
  triad::core::TriadModel model(detector.config(), &init);
  const auto domains = model.EnabledDomains();
  std::vector<triad::nn::Tensor> orig, aug;
  {
    Scope span(tracer, "features.extract");
    for (Domain d : domains) {
      orig.push_back(
          triad::core::BuildDomainBatch(windows, d, detector.period()));
      aug.push_back(
          triad::core::BuildDomainBatch(augmented, d, detector.period()));
    }
  }
  triad::nn::Var loss;
  {
    Scope span(tracer, "nn.forward");
    std::vector<triad::nn::Var> orig_norms, aug_norms;
    for (size_t k = 0; k < domains.size(); ++k) {
      orig_norms.push_back(model.EncodeNormalized(
          domains[k], triad::nn::Constant(orig[k])));
      aug_norms.push_back(model.EncodeNormalized(
          domains[k], triad::nn::Constant(aug[k])));
    }
    loss = model.TotalLoss(orig_norms, aug_norms);
  }
  triad::nn::Adam adam(model.Parameters(),
                       static_cast<float>(detector.config().learning_rate));
  {
    Scope span(tracer, "nn.backward");
    loss.Backward();
  }
  {
    Scope span(tracer, "nn.step");
    adam.Step();
  }
}

/// Longest discord length the detector searches in a region.
int64_t MaxDiscordLength(const TriadDetector& detector, int64_t region) {
  const TriadConfig& c = detector.config();
  return std::min<int64_t>(
      region / 2 - 1,
      static_cast<int64_t>(std::llround(c.merlin_max_length_windows *
                                        static_cast<double>(
                                            detector.window_length()))));
}

/// Traced-run probes of the detection layers around one Detect: the
/// discord sweep re-run on the pass's region, the MASS scans of the
/// candidate windows, voting, and sanitizing the scored series.
void ProbeDetection(const TriadDetector& detector, const UcrDataset& ds,
                    const DetectionResult& result, Tracer* tracer,
                    Report* report) {
  auto& layer = report->per_layer;
  const std::vector<double> region(ds.test.begin() + result.search_begin,
                                   ds.test.begin() + result.search_end);
  const int64_t max_len =
      MaxDiscordLength(detector, static_cast<int64_t>(region.size()));
  if (max_len >= detector.config().merlin_min_length) {
    Scope span(tracer, "discord.merlin");
    auto merlin = triad::discord::Merlin(
        region, detector.config().merlin_min_length, max_len,
        detector.config().merlin_length_step);
    span.Stop();
    if (merlin.ok()) {
      layer["discord.restarts"] += static_cast<double>(merlin->stats.restarts);
      layer["discord.distance_profiles"] +=
          static_cast<double>(merlin->stats.distance_profiles);
      layer["discord.pointwise_ops"] +=
          static_cast<double>(merlin->stats.pointwise_distance_ops);
    }
  }
  std::vector<int64_t> candidates = result.candidate_windows;
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (int64_t c : candidates) {
    const int64_t start = result.window_starts[static_cast<size_t>(c)];
    const std::vector<double> window(
        ds.test.begin() + start, ds.test.begin() + start + result.window_length);
    Scope span(tracer, "discord.mass_profile");
    volatile double first =
        triad::discord::MassDistanceProfile(ds.train, window).front();
    (void)first;
  }
  {
    const int64_t start =
        result.window_starts[static_cast<size_t>(result.selected_window)];
    Scope span(tracer, "voting.run");
    auto votes = triad::core::RunVoting(
        static_cast<int64_t>(ds.test.size()),
        {{start, result.window_length, 0.0}}, result.discords,
        detector.config().voting);
    (void)votes;
  }
  {
    Scope span(tracer, "data.sanitize");
    auto clean = triad::data::SanitizeSeries(ds.test);
    span.Stop();
    if (clean.ok()) {
      layer["data.repaired_samples"] +=
          static_cast<double>(clean->report.repaired_samples);
    }
  }
}

/// \brief The discord search on a fixed series with an exactly constant
/// plateau, checked at every length against the naive oracle.
///
/// The flat rule gives a window of a plateau distance 0 to its flat
/// neighbours, so it can never be the top discord. The program derives
/// window deviations from prefix sums (E[x^2] - E[x]^2), which leaves a
/// constant window a deviation of about 1e-8 instead of 0; the window
/// escapes the 1e-12 flat test, is z-normalised rounding noise, and is
/// reported as the discord. Returns false when any length disagrees: one
/// failed operation in every run, the same on every seed.
bool PlateauProbe() {
  std::vector<double> series(480);
  Rng rng(7);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = std::sin(2.0 * 3.14159265358979323846 *
                         static_cast<double>(t) / 40.0) +
                rng.Normal(0.0, 0.05);
  }
  std::fill(series.begin() + 200, series.begin() + 240, series[200]);
  auto merlin = triad::discord::Merlin(series, 4, 48);
  if (!merlin.ok()) return false;
  bool ok = true;
  for (const auto& d : merlin->discords) {
    const std::string why = CheckDiscord(series, d);
    if (!why.empty()) {
      if (ok) std::cerr << "plateau probe (known fault): " << why << "\n";
      ok = false;
    }
  }
  return ok;
}

std::vector<double> Trajectory(const triad::core::TrainStats& stats) {
  std::vector<double> all = stats.epoch_train_loss;
  all.insert(all.end(), stats.epoch_val_loss.begin(),
             stats.epoch_val_loss.end());
  return all;
}

/// One setup: generate the inputs and run every Fit that is not timed.
struct Setup {
  std::vector<UcrDataset> datasets;
  std::vector<std::unique_ptr<TriadDetector>> detectors;
  /// Loss trajectory (train, then validation) of the reference fit
  /// (dataset 0).
  std::vector<double> reference_loss;
  double fit_seconds = 0.0;
  double fit_windows = 0.0;
};

Setup RunSetup(const BatchPlan& plan, uint64_t seed, Report* report) {
  Setup setup;
  setup.datasets = MakeDatasets(plan, seed);
  // ucr_archive fits dataset 0 once here as the reference for the
  // bit-identical re-fit in the timed phase; long_period fits everything.
  const size_t fits = plan.fit_timed ? 1 : setup.datasets.size();
  // Set-up fits train offline on one thread: small batches spread over four
  // lanes spend most of their time waking workers, and a set-up of the same
  // fits took 0.9 s in one process and 2.1 s in the next.
  triad::ThreadPool serial(1);
  triad::ScopedDefaultPool offline(&serial);
  for (size_t i = 0; i < fits; ++i) {
    auto detector = std::make_unique<TriadDetector>(plan.config);
    const double t0 = Now();
    const auto status = detector->Fit(setup.datasets[i].train);
    setup.fit_seconds += Now() - t0;
    if (!status.ok()) {
      report->Fail("set-up Fit failed on " + setup.datasets[i].name + ": " +
                   status.ToString());
      return setup;
    }
    setup.fit_windows += static_cast<double>(
        detector->train_stats().train_windows * plan.config.epochs);
    if (i == 0) setup.reference_loss = Trajectory(detector->train_stats());
    setup.detectors.push_back(std::move(detector));
  }
  return setup;
}

Report RunBatch(const BatchPlan& plan, const Args& args) {
  Report report;
  triad::ThreadPool pool(plan.threads);
  triad::ScopedDefaultPool scoped_pool(&pool);

  // ---- set-up, repeated; the median is setup_s ----
  std::vector<double> setup_seconds, setup_fit_rates;
  Setup setup;
  std::vector<double> first_reference;
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = Now();
    setup = RunSetup(plan, args.seed, &report);
    setup_seconds.push_back(Now() - t0);
    setup_fit_rates.push_back(setup.fit_windows / setup.fit_seconds);
    if (s == 0) first_reference = setup.reference_loss;
    if (setup.reference_loss != first_reference) {
      report.Fail("Fit of dataset 0 in two set-ups gave different losses");
    }
  }
  if (!report.correct) return report;
  report.end_to_end["setup_s"] = Median(setup_seconds);

  // ---- timed phase ----
  Tracer traced(args.trace);
  const double phase_start = Now();
  double fit_seconds = 0.0, fit_windows = 0.0;
  double detect_seconds = 0.0, points = 0.0;
  std::vector<double> detect_ms;
  std::vector<DetectionResult> results(setup.datasets.size());
  std::vector<const TriadDetector*> used(setup.datasets.size(), nullptr);
  std::vector<std::unique_ptr<TriadDetector>> fitted;
  for (size_t i = 0; i < setup.datasets.size(); ++i) {
    const UcrDataset& ds = setup.datasets[i];
    const TriadDetector* detector = nullptr;
    if (plan.fit_timed) {
      auto fresh = std::make_unique<TriadDetector>(plan.config);
      ++report.attempted;
      Scope span(&traced, "trainer.fit");
      const auto status = fresh->Fit(ds.train);
      const double seconds = span.Stop();
      if (!status.ok()) {
        ++report.failed;
        std::cerr << "Fit failed on " << ds.name << ": " << status.ToString()
                  << "\n";
        continue;
      }
      fit_seconds += seconds;
      fit_windows += static_cast<double>(fresh->train_stats().train_windows *
                                         plan.config.epochs);
      if (i == 0 && Trajectory(fresh->train_stats()) != setup.reference_loss) {
        report.Fail("re-fit of " + ds.name +
                    " did not reproduce its loss trajectory bit for bit");
      }
      if (traced.enabled()) ProbeTraining(*fresh, ds.train, &traced);
      detector = fresh.get();
      fitted.push_back(std::move(fresh));
    } else {
      detector = setup.detectors[i].get();
    }
    ++report.attempted;
    Scope span(&traced, "detector.detect");
    auto result = detector->Detect(ds.test);
    const double seconds = span.Stop();
    if (!result.ok()) {
      ++report.failed;
      std::cerr << "Detect failed on " << ds.name << ": "
                << result.status().ToString() << "\n";
      continue;
    }
    detect_seconds += seconds;
    detect_ms.push_back(seconds * 1e3);
    points += static_cast<double>(ds.test.size());
    if (traced.enabled()) {
      // The stage timings the detector reports, as children of its span.
      double at = span.start();
      const std::pair<const char*, double> stages[] = {
          {"detector.encode", result->encode_seconds},
          {"detector.tri_window", result->tri_window_seconds},
          {"detector.selection", result->selection_seconds},
          {"detector.discord", result->discord_seconds}};
      for (const auto& [name, s] : stages) {
        traced.AddChild(span.id(), name, at, at + s);
        at += s;
      }
      report.per_layer["detector.search_points"] += static_cast<double>(
          result->search_end - result->search_begin);
      ProbeDetection(*detector, ds, *result, &traced, &report);
    }
    results[i] = std::move(result).value();
    used[i] = detector;
  }
  const double phase_end = Now();

  // ---- checks against the independent oracles ----
  const double checks_start = Now();
  for (size_t round = 0; round < plan.periods.size() / plan.round_size;
       ++round) {
    ++report.attempted;
    if (!PlateauProbe()) ++report.failed;
  }
  Rng pick(args.seed + 99);
  double f1_sum = 0.0;
  int64_t scored = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (used[i] == nullptr) continue;
    const UcrDataset& ds = setup.datasets[i];
    const DetectionResult& r = results[i];
    const std::string voting = CheckVoting(r);
    if (!voting.empty()) report.Fail(ds.name + " voting: " + voting);
    if (r.discords.empty()) report.Fail(ds.name + ": no discords reported");
    const std::vector<double> region(ds.test.begin() + r.search_begin,
                                     ds.test.begin() + r.search_end);
    for (int k = 0; k < plan.discord_checks && !r.discords.empty(); ++k) {
      const auto& d = r.discords[static_cast<size_t>(pick.UniformInt(
          0, static_cast<int64_t>(r.discords.size()) - 1))];
      auto local = d;
      local.position -= r.search_begin;
      const std::string why = CheckDiscord(region, local);
      if (!why.empty()) report.Fail(ds.name + " discord: " + why);
    }
    f1_sum += triad::eval::ComputeAffiliation(r.predictions, ds.TestLabels())
                  .F1();
    ++scored;
  }

  std::cerr << "timing: set-up " << Median(setup_seconds) << " s (median of "
            << kSetups << "), timed phase " << phase_end - phase_start
            << " s, checks " << Now() - checks_start << " s\n";

  auto& e2e = report.end_to_end;
  e2e["peak_rss_mb"] = PeakRssMb();
  e2e["points_per_s"] = detect_seconds > 0 ? points / detect_seconds : 0.0;
  e2e["score_ms_p50"] = HarrellDavisMedian(detect_ms);
  // Timed fits on ucr_archive; otherwise the median set-up's fit rate.
  report.per_layer["trainer.fit_rate"] =
      plan.fit_timed ? fit_windows / fit_seconds : Median(setup_fit_rates);
  e2e["affiliation_f1"] = scored > 0 ? f1_sum / static_cast<double>(scored)
                                     : 0.0;

  if (traced.enabled()) {
    auto& layer = report.per_layer;
    for (const char* name :
         {"trainer.fit", "nn.forward", "nn.backward", "nn.step",
          "features.extract", "signal.period", "detector.encode",
          "detector.tri_window", "detector.selection", "detector.discord",
          "discord.merlin", "discord.mass_profile", "voting.run",
          "data.sanitize"}) {
      layer[std::string(name) + "_s"] = traced.Self(name);
    }
    layer["detector.self_s"] = traced.Self("detector.detect");
    layer["trainer.windows"] = fit_windows;
    const double wall = phase_end - phase_start;
    layer["trace.scoring_wall_s"] = wall;
    layer["unattributed_s"] =
        wall - traced.SelfWithin(phase_start, phase_end);
    layer["trace.overhead_s"] = traced.RecordingCost();
  }
  return report;
}

}  // namespace

// Calibrated on the reference host (4-vCPU KVM guest) so that a run's
// timed phase lasts about --seconds; the work depends only on --seed and
// --seconds, never on how fast the host happened to be.
constexpr double kUcrRoundSeconds = 3.0;   // six datasets, Fit + Detect
constexpr double kLongRoundSeconds = 7.5;  // four Detects at 4 threads

Report RunUcrArchive(const Args& args) {
  BatchPlan plan;
  plan.threads = 1;
  plan.config.depth = 3;
  plan.config.hidden_dim = 16;
  plan.config.epochs = 5;
  // Each round of six covers every anomaly type and every period once; the
  // period-type pairing rotates from round to round.
  const int64_t periods[] = {40, 48, 56, 64, 72, 80};
  int64_t rounds = std::max<int64_t>(
      1, std::llround(args.seconds / kUcrRoundSeconds));
  if (args.small) {
    plan.config.depth = 2;
    plan.config.hidden_dim = 8;
    plan.config.epochs = 2;
    rounds = 1;
  }
  for (int64_t r = 0; r < rounds; ++r) {
    for (int64_t j = 0; j < kTypes; ++j) {
      plan.periods.push_back(
          args.small ? 24 : periods[static_cast<size_t>((j + r) % kTypes)]);
    }
  }
  plan.round_size = kTypes;
  plan.fit_timed = true;
  plan.discord_checks = 2;
  return RunBatch(plan, args);
}

Report RunLongPeriod(const Args& args) {
  BatchPlan plan;
  plan.threads = 4;
  plan.config.depth = 2;
  plan.config.hidden_dim = 8;
  plan.config.epochs = 3;
  const int64_t periods[] = {120, 140, 160, 180};
  int64_t rounds = std::max<int64_t>(
      1, std::llround(args.seconds / kLongRoundSeconds));
  if (args.small) rounds = 1;
  for (int64_t i = 0; i < 4 * rounds; ++i) {
    plan.periods.push_back(args.small ? 48 : periods[i % 4]);
  }
  plan.round_size = 4;
  plan.train_periods = 12;
  plan.test_periods = 10;
  plan.fit_timed = false;
  plan.discord_checks = 1;
  return RunBatch(plan, args);
}

}  // namespace perfbench
