// fleet_stream: a durable FleetServer on four threads in a closed loop.
// Each round every tenant ingests one chunk of one hop, then the round
// drains, so every chunk is scored by the Drain that follows it. Tenants
// warm-start from checkpoints through a ModelRegistry; the run ends with a
// kill (the fleet is dropped without Checkpoint) and a Recover on a fresh
// fleet, which replays the WAL tail with a cold stream memo.

#include <sys/stat.h>

#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/detector.h"
#include "core/streaming.h"
#include "data/sanitize.h"
#include "eval/metrics.h"
#include "serve/durability.h"
#include "serve/fleet_server.h"
#include "serve/model_registry.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using triad::Rng;
using triad::core::StreamingTriad;
using triad::core::TriadConfig;
using triad::core::TriadDetector;
using triad::serve::FleetServer;
using triad::serve::IngestStatus;

constexpr double kPi = 3.14159265358979323846;
constexpr int kSetups = 3;
// Calibrated on the reference host (4-vCPU KVM guest): one round of the
// full-size fleet, ingest plus drain.
constexpr double kRoundSeconds = 0.2;
/// Rounds ingested after the last drain, left for recovery to replay.
constexpr int64_t kTailRounds = 16;

/// One tenant's feed: a periodic signal with labelled anomaly events and,
/// for dirty tenants, short NaN gaps and scale glitches the sanitizer
/// repairs.
struct Feed {
  std::vector<double> points;
  std::vector<int> labels;
};

double Clean(int64_t t, int64_t period, double phase) {
  const double x = 2.0 * kPi * static_cast<double>(t) /
                   static_cast<double>(period);
  return std::sin(x + phase) + 0.4 * std::sin(2.0 * x + 2.0 * phase);
}

/// Per-seed observation noise added on top of every series. Everything
/// else about the inputs (phases, anomaly and damage placement, the base
/// noise) is fixed, for the reason batch.cc's MakeDatasets gives: a pass's
/// cost swings with where anomalies fall, and redrawing them per seed made
/// set-up and throughput mostly a measure of the draw.
constexpr double kSeedNoise = 0.01;
constexpr uint64_t kStructureSeed = 20240402;

void AddSeedNoise(std::vector<double>* x, Rng* noise) {
  for (double& v : *x) v += noise->Normal(0.0, kSeedNoise);
}

std::vector<double> TrainSeries(int64_t n, int64_t period, Rng* rng) {
  std::vector<double> x(static_cast<size_t>(n));
  for (int64_t t = 0; t < n; ++t) {
    x[static_cast<size_t>(t)] = Clean(t, period, 0.0) + rng->Normal(0.0, 0.05);
  }
  return x;
}

Feed MakeFeed(int64_t n, int64_t period, bool dirty, Rng* rng) {
  Feed feed;
  feed.points.resize(static_cast<size_t>(n));
  feed.labels.assign(static_cast<size_t>(n), 0);
  const double phase = rng->Uniform(0.0, 2.0 * kPi);
  for (int64_t t = 0; t < n; ++t) {
    feed.points[static_cast<size_t>(t)] =
        Clean(t, period, phase) + rng->Normal(0.0, 0.05);
  }
  // One anomaly event every 8-14 periods: noise burst, level shift,
  // doubled frequency or a spike.
  for (int64_t at = rng->UniformInt(4 * period, 8 * period); at < n;
       at += rng->UniformInt(8 * period, 14 * period)) {
    const int kind = static_cast<int>(rng->UniformInt(0, 3));
    const int64_t len =
        kind == 3 ? 1 : rng->UniformInt(period / 4, period);
    for (int64_t t = at; t < std::min(n, at + len); ++t) {
      double& v = feed.points[static_cast<size_t>(t)];
      if (kind == 0) v += rng->Normal(0.0, 0.6);
      if (kind == 1) v += 1.2;
      if (kind == 2) v = std::sin(4.0 * kPi * static_cast<double>(t) /
                                  static_cast<double>(period) + phase);
      if (kind == 3) v += 4.0;
      feed.labels[static_cast<size_t>(t)] = 1;
    }
  }
  if (dirty) {
    // Repairable damage every 5-9 periods: a NaN run of 2-8 samples
    // (interpolated) or one sample a thousand times too large (clamped).
    for (int64_t at = rng->UniformInt(period, 5 * period); at < n;
         at += rng->UniformInt(5 * period, 9 * period)) {
      if (rng->Bernoulli(0.5)) {
        const int64_t len = rng->UniformInt(2, 8);
        for (int64_t t = at; t < std::min(n, at + len); ++t) {
          feed.points[static_cast<size_t>(t)] =
              std::numeric_limits<double>::quiet_NaN();
        }
      } else {
        feed.points[static_cast<size_t>(at)] *= 1000.0;
      }
    }
  }
  return feed;
}

struct TenantPlan {
  int model = 0;
  bool dirty = false;
  bool long_buffer = false;
  int64_t id = 0;
  int64_t buffer = 0;
  int64_t hop = 0;
  Feed feed;
};

/// The fleet's shape: model periods, and which tenants are dirty or have a
/// long buffer.
struct FleetPlan {
  std::vector<int64_t> model_periods;
  TriadConfig config;
  int64_t tenants_per_model = 4;
  int64_t long_tenants = 2;
  int64_t rounds = 0;
};

struct FleetSetup {
  std::string dir;
  std::vector<std::string> checkpoints;
  std::vector<std::vector<double>> reference_loss;
  std::vector<TenantPlan> tenants;
  std::unique_ptr<triad::serve::ModelRegistry> registry;
  std::unique_ptr<FleetServer> fleet;
  double fit_seconds = 0.0;
  double fit_windows = 0.0;
  bool ok = true;
};

triad::serve::FleetOptions DurableOptions(const std::string& dir) {
  triad::serve::FleetOptions options;
  options.durability.dir = dir;
  return options;
}

/// Fits the models, writes their checkpoints, and assembles a durable
/// fleet whose tenants warm-start from them, each buffer filled once.
FleetSetup RunSetup(const FleetPlan& plan, const Args& args, int index,
                    Report* report) {
  FleetSetup setup;
  setup.dir = args.work_dir + "/setup" + std::to_string(index);
  fs::remove_all(setup.dir);
  fs::create_directories(setup.dir + "/fleet");
  Rng master(kStructureSeed);
  Rng noise(args.seed * 0x9e3779b97f4a7c15ULL + 29);
  // The models train offline, one thread each: Fit's small batches spread
  // over four lanes spend most of their time waking workers, and took
  // anywhere from 0.3 to 0.7 s for the same model from one process to the
  // next.
  triad::ThreadPool serial(1);
  std::optional<triad::ScopedDefaultPool> offline(&serial);
  for (size_t m = 0; m < plan.model_periods.size(); ++m) {
    Rng rng = master.Fork();
    const int64_t period = plan.model_periods[m];
    TriadDetector detector(plan.config);
    std::vector<double> train = TrainSeries(30 * period, period, &rng);
    AddSeedNoise(&train, &noise);
    const double t0 = Now();
    const auto status = detector.Fit(train);
    setup.fit_seconds += Now() - t0;
    const std::string path = setup.dir + "/model" + std::to_string(m) + ".ckpt";
    if (!status.ok() || !detector.Save(path).ok()) {
      report->Fail("set-up fit or save of model " + std::to_string(m) +
                   " failed: " + status.ToString());
      setup.ok = false;
      return setup;
    }
    setup.fit_windows += static_cast<double>(
        detector.train_stats().train_windows * plan.config.epochs);
    std::vector<double> losses = detector.train_stats().epoch_train_loss;
    losses.insert(losses.end(), detector.train_stats().epoch_val_loss.begin(),
                  detector.train_stats().epoch_val_loss.end());
    setup.reference_loss.push_back(std::move(losses));
    setup.checkpoints.push_back(path);
  }

  offline.reset();
  setup.registry = std::make_unique<triad::serve::ModelRegistry>();
  setup.fleet = std::make_unique<FleetServer>(
      DurableOptions(setup.dir + "/fleet"));
  const int64_t long_buffer =
      triad::serve::FleetOptions().multi_core_min_buffer;
  std::vector<TenantPlan> plans;
  for (size_t m = 0; m < plan.model_periods.size(); ++m) {
    for (int64_t k = 0; k < plan.tenants_per_model; ++k) {
      TenantPlan t;
      t.model = static_cast<int>(m);
      t.dirty = k == plan.tenants_per_model - 1;
      plans.push_back(t);
    }
  }
  for (int64_t k = 0; k < plan.long_tenants; ++k) {
    TenantPlan t;
    t.long_buffer = true;
    plans.push_back(t);
  }
  for (TenantPlan& t : plans) {
    triad::serve::TenantOptions options;
    if (t.long_buffer) options.streaming.buffer_length = long_buffer;
    auto id = setup.fleet->AddTenantFromCheckpoint(
        setup.registry.get(), setup.checkpoints[static_cast<size_t>(t.model)],
        options);
    if (!id.ok()) {
      report->Fail("AddTenantFromCheckpoint failed: " +
                   id.status().ToString());
      setup.ok = false;
      return setup;
    }
    t.id = *id;
    auto model = setup.registry->Get(
        setup.checkpoints[static_cast<size_t>(t.model)]);
    const StreamingTriad shape(model->get(), options.streaming);
    t.buffer = shape.buffer_length();
    t.hop = shape.hop();
    Rng rng = master.Fork();
    t.feed = MakeFeed(t.buffer + (plan.rounds + kTailRounds) * t.hop,
                      plan.model_periods[static_cast<size_t>(t.model)],
                      t.dirty, &rng);
    AddSeedNoise(&t.feed.points, &noise);
    // Warm start: one chunk fills the buffer, and its drain runs the
    // tenant's first (cold) pass.
    auto verdict = setup.fleet->Ingest(
        t.id, std::vector<double>(t.feed.points.begin(),
                                  t.feed.points.begin() + t.buffer));
    if (!verdict.ok() || *verdict != IngestStatus::kAccepted) {
      report->Fail("warm-start Ingest was not accepted");
      setup.ok = false;
    }
  }
  if (!setup.fleet->Drain().ok()) {
    report->Fail("warm-start Drain failed");
    setup.ok = false;
  }
  setup.tenants = std::move(plans);
  return setup;
}

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                         : 0;
}

std::vector<double> Chunk(const TenantPlan& t, int64_t round) {
  const auto begin =
      t.feed.points.begin() + t.buffer + round * t.hop;
  return std::vector<double>(begin, begin + t.hop);
}

double Counter(const char* name) {
  return static_cast<double>(
      triad::metrics::Registry::Global().counter(name)->value());
}

}  // namespace

Report RunFleetStream(const Args& args) {
  Report report;
  triad::ThreadPool pool(4);
  triad::ScopedDefaultPool scoped_pool(&pool);

  FleetPlan plan;
  plan.model_periods = {32, 40, 48};
  plan.config.depth = 3;
  plan.config.hidden_dim = 16;
  plan.config.epochs = 6;
  plan.rounds = std::max<int64_t>(
      16, std::llround(args.seconds / kRoundSeconds));
  if (args.small) {
    plan.model_periods = {24};
    plan.config.depth = 2;
    plan.config.hidden_dim = 8;
    plan.config.epochs = 2;
    plan.tenants_per_model = 3;
    plan.long_tenants = 1;
    plan.rounds = 20;
  }

  // ---- set-up, repeated; the median is setup_s ----
  std::vector<double> setup_seconds, fit_rates;
  FleetSetup setup;
  std::vector<std::vector<double>> first_losses;
  for (int s = 0; s < kSetups; ++s) {
    if (setup.fleet != nullptr) {
      setup.fleet.reset();
      fs::remove_all(setup.dir);
    }
    const double t0 = Now();
    setup = RunSetup(plan, args, s, &report);
    setup_seconds.push_back(Now() - t0);
    if (!setup.ok) return report;
    fit_rates.push_back(setup.fit_windows / setup.fit_seconds);
    if (s == 0) first_losses = setup.reference_loss;
    if (setup.reference_loss != first_losses) {
      report.Fail("the same model fitted twice gave different losses");
    }
  }
  report.end_to_end["setup_s"] = Median(setup_seconds);

  FleetServer& fleet = *setup.fleet;
  std::vector<TenantPlan>& tenants = setup.tenants;
  Tracer traced(args.trace);
  auto& layer = report.per_layer;
  triad::metrics::Registry::Global().ResetAll();
  const triad::serve::FleetStats before = fleet.stats();

  // ---- timed phase: closed-loop rounds ----
  const double phase_start = Now();
  double round_seconds = 0.0, points = 0.0;
  std::vector<double> chunk_ms;
  std::vector<double> ingest_start(tenants.size());
  for (int64_t r = 0; r < plan.rounds; ++r) {
    const double round_start = Now();
    for (size_t i = 0; i < tenants.size(); ++i) {
      const std::vector<double> chunk = Chunk(tenants[i], r);
      ingest_start[i] = Now();
      ++report.attempted;
      Scope span(&traced, "serve.ingest");
      auto verdict = fleet.Ingest(tenants[i].id, chunk);
      span.Stop();
      if (!verdict.ok() || *verdict != IngestStatus::kAccepted) {
        ++report.failed;
        std::cerr << "Ingest of tenant " << tenants[i].id << " round " << r
                  << " was not accepted\n";
      }
      points += static_cast<double>(chunk.size());
    }
    ++report.attempted;
    Scope span(&traced, "serve.drain");
    auto drained = fleet.Drain();
    const double drain_end = span.start() + span.Stop();
    if (!drained.ok()) ++report.failed;
    round_seconds += drain_end - round_start;
    for (double t : ingest_start) chunk_ms.push_back((drain_end - t) * 1e3);
    if (traced.enabled()) {
      // Sanitize every buffer this drain scored (one pass per tenant).
      for (const TenantPlan& t : tenants) {
        const auto end = t.feed.points.begin() + t.buffer + (r + 1) * t.hop;
        const std::vector<double> buffer(end - t.buffer, end);
        Scope sanitize(&traced, "data.sanitize");
        auto clean = triad::data::SanitizeSeries(buffer);
        sanitize.Stop();
        if (clean.ok()) {
          layer["data.repaired_samples"] +=
              static_cast<double>(clean->report.repaired_samples);
        }
      }
    }
  }
  const triad::serve::FleetStats stats = fleet.stats();
  const double encode_hits = Counter("streaming.encode_hits");
  const double encode_misses = Counter("streaming.encode_misses");
  const double merlin_hits = Counter("streaming.merlin_hits");
  const double merlin_misses = Counter("streaming.merlin_misses");
  layer["streaming.memo_bypass"] = Counter("streaming.memo_bypass");
  layer["streaming.encode_hit_rate"] =
      encode_hits / std::max(1.0, encode_hits + encode_misses);
  layer["streaming.merlin_hit_rate"] =
      merlin_hits / std::max(1.0, merlin_hits + merlin_misses);

  // Admission invariant and pass outcomes over the timed phase.
  if (stats.submitted != stats.accepted + stats.degraded + stats.rejected) {
    report.Fail("submitted != accepted + degraded + rejected");
  }
  if (stats.rejected != 0 || stats.degraded != 0) {
    report.Fail("chunks were rejected or degraded: " +
                std::to_string(stats.rejected) + " rejected, " +
                std::to_string(stats.degraded) + " degraded");
  }
  if (stats.failed_passes != 0 || stats.append_errors != 0) {
    report.Fail("passes failed: " + std::to_string(stats.failed_passes));
  }
  const uint64_t expected_passes =
      before.passes + static_cast<uint64_t>(plan.rounds * tenants.size());
  if (stats.passes != expected_passes) {
    report.Fail("fleet ran " + std::to_string(stats.passes) +
                " passes, one per tenant per round gives " +
                std::to_string(expected_passes));
  }
  std::vector<std::vector<int>> pre_crash(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    auto snap = fleet.Tenant(tenants[i].id);
    if (snap.ok()) pre_crash[i] = snap->alarms;
  }

  // ---- kill: a WAL tail of undrained chunks, no Checkpoint ----
  for (int64_t r = plan.rounds; r < plan.rounds + kTailRounds; ++r) {
    for (TenantPlan& t : tenants) {
      ++report.attempted;
      Scope span(&traced, "serve.ingest");
      auto verdict = fleet.Ingest(t.id, Chunk(t, r));
      if (!verdict.ok() || *verdict != IngestStatus::kAccepted) {
        ++report.failed;
      }
    }
  }
  const std::string fleet_dir = setup.dir + "/fleet";
  double wal_bytes = 0.0, snapshot_bytes = 0.0;
  for (const TenantPlan& t : tenants) {
    const std::string dir = triad::serve::TenantDir(fleet_dir, t.id);
    wal_bytes += static_cast<double>(FileBytes(dir + "/wal"));
    snapshot_bytes += static_cast<double>(FileBytes(dir + "/snapshot"));
  }
  setup.fleet.reset();

  // The WAL tail recovery must replay: every tenant has run one pass per
  // drained chunk (plus its warm-up pass), so it last snapshotted at the
  // drain where its pass count reached a multiple of the snapshot cadence.
  const int64_t cadence =
      triad::serve::DurabilityOptions().snapshot_every_passes;
  const int64_t lifetime = 1 + plan.rounds;
  const int64_t snapshot_at = lifetime / cadence * cadence;  // in passes
  const int64_t drained_after_snapshot =
      snapshot_at == 0 ? plan.rounds + 1 : lifetime - snapshot_at;
  int64_t expected_tail = 0;
  for (const TenantPlan& t : tenants) {
    expected_tail += (drained_after_snapshot + kTailRounds) * t.hop;
    if (snapshot_at == 0) expected_tail += t.buffer - t.hop;
  }

  // ---- recovery on a fresh fleet and a fresh registry ----
  triad::serve::ModelRegistry registry;
  FleetServer recovered(DurableOptions(fleet_dir));
  Scope recover_span(&traced, "durability.recover");
  auto recovery = recovered.Recover(&registry);
  layer["durability.recover_s"] = recover_span.Stop();
  ++report.attempted;
  if (!recovery.ok()) {
    ++report.failed;
    report.Fail("Recover failed: " + recovery.status().ToString());
    return report;
  }
  if (recovery->tenants_recovered != static_cast<int64_t>(tenants.size()) ||
      !recovery->quarantined.empty()) {
    report.Fail("Recover restored " +
                std::to_string(recovery->tenants_recovered) + " of " +
                std::to_string(tenants.size()) + " tenants");
  }
  if (recovery->points_replayed != expected_tail) {
    report.Fail("Recover replayed " +
                std::to_string(recovery->points_replayed) +
                " points, the WAL tail holds " +
                std::to_string(expected_tail));
  }
  {
    ++report.attempted;
    Scope span(&traced, "durability.checkpoint");
    if (!recovered.Checkpoint().ok()) ++report.failed;
  }

  // ---- standalone replay: the oracle for every timeline ----
  std::vector<std::shared_ptr<const TriadDetector>> loaded;
  for (const std::string& path : setup.checkpoints) {
    Scope span(&traced, "durability.model_load");
    auto detector = TriadDetector::Load(path);
    span.Stop();
    if (!detector.ok()) {
      report.Fail("Load of " + path + " failed");
      return report;
    }
    loaded.push_back(
        std::make_shared<const TriadDetector>(std::move(detector).value()));
  }
  double f1_sum = 0.0;
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantPlan& t = tenants[i];
    triad::core::StreamingOptions options;
    options.buffer_length = t.buffer;
    StreamingTriad alone(loaded[static_cast<size_t>(t.model)].get(), options);
    bool appended = true;
    for (int64_t r = -1; r < plan.rounds + kTailRounds && appended; ++r) {
      if (r == plan.rounds && alone.alarms() != pre_crash[i]) {
        report.Fail("tenant " + std::to_string(t.id) +
                    ": fleet timeline differs from a standalone stream");
      }
      const std::vector<double> chunk =
          r < 0 ? std::vector<double>(t.feed.points.begin(),
                                      t.feed.points.begin() + t.buffer)
                : Chunk(t, r);
      Scope span(&traced, "streaming.append");
      appended = alone.Append(chunk).ok();
    }
    auto snap = recovered.Tenant(t.id);
    if (!appended || !snap.ok() || snap->alarms != alone.alarms()) {
      report.Fail("tenant " + std::to_string(t.id) +
                  ": recovered timeline differs from the pre-crash stream");
      continue;
    }
    if (alone.failed_passes() != 0) {
      report.Fail("tenant " + std::to_string(t.id) + " has failed passes");
    }
    f1_sum += triad::eval::ComputeAffiliation(alone.alarms(), t.feed.labels)
                  .F1();
  }
  const double phase_end = Now();
  fs::remove_all(args.work_dir);
  std::cerr << "timing: set-up " << Median(setup_seconds) << " s (median of "
            << kSetups << "), timed rounds " << round_seconds
            << " s, recovery " << layer["durability.recover_s"]
            << " s, after set-up " << phase_end - phase_start << " s\n";

  auto& e2e = report.end_to_end;
  e2e["peak_rss_mb"] = PeakRssMb();
  e2e["points_per_s"] = round_seconds > 0 ? points / round_seconds : 0.0;
  e2e["score_ms_p50"] = HarrellDavisMedian(chunk_ms);
  layer["trainer.fit_rate"] = Median(fit_rates);
  e2e["affiliation_f1"] = f1_sum / static_cast<double>(tenants.size());

  if (traced.enabled()) {
    const std::vector<double> ingest_us = [&] {
      std::vector<double> us = traced.Durations("serve.ingest");
      for (double& v : us) v *= 1e6;
      return us;
    }();
    layer["serve.ingest_us_p50"] = Median(ingest_us);
    layer["serve.ingest_us_p90"] = Quantile(ingest_us, 0.9);
    layer["serve.ingest_s"] = traced.Self("serve.ingest");
    layer["serve.chunk_ms_p90"] = Quantile(chunk_ms, 0.9);
    layer["serve.drain_s"] = traced.Self("serve.drain");
    layer["streaming.append_s"] = traced.Self("streaming.append");
    layer["serve.self_s"] =
        layer["serve.drain_s"] - layer["streaming.append_s"];
    layer["data.sanitize_s"] = traced.Self("data.sanitize");
    layer["durability.checkpoint_s"] = traced.Self("durability.checkpoint");
    layer["durability.model_load_s"] = traced.Self("durability.model_load");
    const double wall = phase_end - phase_start;
    layer["trace.scoring_wall_s"] = wall;
    layer["unattributed_s"] =
        wall - traced.SelfWithin(phase_start, phase_end);
    layer["trace.overhead_s"] = traced.RecordingCost();
  }
  layer["serve.batched_detects"] =
      static_cast<double>(stats.batched_detects - before.batched_detects);
  layer["serve.single_core_groups"] = static_cast<double>(
      stats.single_core_groups - before.single_core_groups);
  layer["serve.multi_core_groups"] = static_cast<double>(
      stats.multi_core_groups - before.multi_core_groups);
  layer["durability.wal_bytes"] = wal_bytes;
  layer["durability.snapshot_bytes"] = snapshot_bytes;
  layer["durability.replayed_points"] =
      static_cast<double>(recovery->points_replayed);
  if (stats.multi_core_groups == before.multi_core_groups) {
    report.Fail("no drain ran the kMultiCoreSharded strategy");
  }
  if (layer["streaming.memo_bypass"] == 0.0) {
    report.Fail("no dirty pass bypassed the stream memo");
  }
  return report;
}

}  // namespace perfbench
