#include "core/detector.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/deadline.h"
#include "common/durable_io.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/features.h"
#include "data/sanitize.h"
#include "discord/mass.h"
#include "nn/serialize.h"
#include "signal/decompose.h"
#include "signal/periodogram.h"
#include "signal/windows.h"

namespace triad::core {
namespace {

// Windows shorter than this have too little structure for the FFT features.
constexpr int64_t kMinWindowLength = 16;

// Severely corrupted inputs (a non-finite value the sanitizer could not
// interpolate, damage above the configured thresholds) would silently poison
// the FFTs, the z-normalizations and the training loss, so Fit/Detect run
// every series through data::SanitizeSeries first and propagate its
// InvalidArgument instead of crashing (ARCHITECTURE.md §5).

// User-supplied tunables get a Status here instead of tripping the model
// constructor's TRIAD_CHECKs (those stay for actual programming errors).
Status ValidateConfig(const TriadConfig& c) {
  if (c.depth < 1) return Status::InvalidArgument("depth must be >= 1");
  if (c.hidden_dim < 1) {
    return Status::InvalidArgument("hidden_dim must be >= 1");
  }
  if (c.kernel_size < 1) {
    return Status::InvalidArgument("kernel_size must be >= 1");
  }
  if (c.stride_divisor < 1) {
    return Status::InvalidArgument("stride_divisor must be >= 1");
  }
  if (!(c.periods_per_window > 0.0)) {
    return Status::InvalidArgument("periods_per_window must be > 0");
  }
  if (!(c.temperature > 0.0)) {
    return Status::InvalidArgument("temperature must be > 0");
  }
  if (!(c.learning_rate > 0.0)) {
    return Status::InvalidArgument("learning_rate must be > 0");
  }
  if (c.epochs < 0) return Status::InvalidArgument("epochs must be >= 0");
  if (c.validation_fraction < 0.0 || c.validation_fraction >= 1.0) {
    return Status::InvalidArgument("validation_fraction must be in [0, 1)");
  }
  if (c.EnabledDomains() == 0) {
    return Status::InvalidArgument("at least one domain must be enabled");
  }
  return Status::OK();
}

std::vector<std::vector<double>> SliceWindows(
    const std::vector<double>& series, int64_t length, int64_t stride) {
  std::vector<std::vector<double>> out;
  for (int64_t s : signal::SlidingWindowStarts(
           static_cast<int64_t>(series.size()), length, stride)) {
    out.push_back(signal::ExtractWindow(series, s, length));
  }
  return out;
}

// Rows per chunk of the O(M^2 L) pairwise-similarity scan below; fixed so
// the parallel decomposition never depends on the thread count.
constexpr int64_t kSimilarityGrain = 16;

// Mean pairwise dot product of each window's unit representation against
// every other window (Fig. 11; lower = more deviant). Each row writes only
// its own slot, so rows fan out across the pool deterministically.
// `precision` is resolved by the caller on its own thread (the tier
// override is thread-local; pool lanes must not re-resolve it): at kF32
// the representations are already float, so the scan runs simd::DotF32
// directly on them — each pair's dot is single-precision, the per-row sum
// over pairs stays double in the same j order as the kF64 scan.
std::vector<double> MeanPairwiseSimilarity(
    const std::vector<std::vector<float>>& reps, simd::Precision precision) {
  const int64_t M = static_cast<int64_t>(reps.size());
  std::vector<double> sim(static_cast<size_t>(M), 0.0);
  ParallelFor(0, M, kSimilarityGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      double total = 0.0;
      const auto& a = reps[static_cast<size_t>(i)];
      for (int64_t j = 0; j < M; ++j) {
        if (i == j) continue;
        const auto& b = reps[static_cast<size_t>(j)];
        total += precision == simd::Precision::kF32
                     ? static_cast<double>(simd::DotF32(
                           a.data(), b.data(),
                           static_cast<int64_t>(a.size())))
                     : simd::Dot(a.data(), b.data(),
                                 static_cast<int64_t>(a.size()));
      }
      sim[static_cast<size_t>(i)] =
          M > 1 ? total / static_cast<double>(M - 1) : 0.0;
    }
  });
  return sim;
}

// Streaming-memo instruments (ARCHITECTURE.md §8). Hit/miss pairs per
// cached stage; `memo_bypass` counts dirty passes that fell back to the
// plain path. All shared-registry counters, so ucr_runner --metrics-json
// and the benches report them alongside the mass.spectrum_* pair.
struct MemoMetrics {
  metrics::Counter* encode_hits =
      metrics::Registry::Global().counter("streaming.encode_hits");
  metrics::Counter* encode_misses =
      metrics::Registry::Global().counter("streaming.encode_misses");
  metrics::Counter* dot_hits =
      metrics::Registry::Global().counter("streaming.dot_hits");
  metrics::Counter* dot_misses =
      metrics::Registry::Global().counter("streaming.dot_misses");
  metrics::Counter* deviation_hits =
      metrics::Registry::Global().counter("streaming.deviation_hits");
  metrics::Counter* deviation_misses =
      metrics::Registry::Global().counter("streaming.deviation_misses");
  metrics::Counter* merlin_hits =
      metrics::Registry::Global().counter("streaming.merlin_hits");
  metrics::Counter* merlin_misses =
      metrics::Registry::Global().counter("streaming.merlin_misses");
  metrics::Counter* memo_bypass =
      metrics::Registry::Global().counter("streaming.memo_bypass");
};

MemoMetrics& MemoInstruments() {
  static MemoMetrics m;
  return m;
}

}  // namespace

uint64_t NextStreamUid() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void DetectMemo::BindStream(uint64_t uid) {
  TRIAD_CHECK_MSG(uid != 0, "stream uid 0 is the unbound sentinel");
  if (stream_uid == 0) {
    stream_uid = uid;
    return;
  }
  TRIAD_CHECK_MSG(stream_uid == uid,
                  "cross-stream memo reuse: memo bound to stream "
                      << stream_uid << " offered to stream " << uid
                      << " (global keys alias across streams)");
}

void DetectMemo::EvictBefore(int64_t global_start) {
  for (auto& per_domain : encodings) {
    for (auto it = per_domain.begin(); it != per_domain.end();) {
      it = it->first < global_start ? per_domain.erase(it) : std::next(it);
    }
  }
  for (auto& per_domain : rep_dots) {
    // Keys are (lo, hi) with lo <= hi: everything with lo below the buffer
    // start references an evicted window, and the map is ordered by lo.
    per_domain.erase(per_domain.begin(),
                     per_domain.lower_bound({global_start, global_start}));
  }
  for (auto it = deviations.begin(); it != deviations.end();) {
    it = it->first < global_start ? deviations.erase(it) : std::next(it);
  }
  merlin.erase(std::remove_if(merlin.begin(), merlin.end(),
                              [&](const MerlinEntry& e) {
                                return e.begin < global_start;
                              }),
               merlin.end());
}

bool WindowOverlapsRange(int64_t start, int64_t length, int64_t begin,
                         int64_t end) {
  return start < end && begin < start + length;
}

TriadDetector::TriadDetector(TriadConfig config) : config_(config) {}

Status TriadDetector::Fit(const std::vector<double>& train_series) {
  TRIAD_RETURN_NOT_OK(ValidateConfig(config_));
  if (static_cast<int64_t>(train_series.size()) < 4 * kMinWindowLength) {
    return Status::InvalidArgument("training series too short");
  }
  TRIAD_ASSIGN_OR_RETURN(
      data::Sanitized clean,
      data::SanitizeSeries(train_series, config_.sanitize));
  train_report_ = clean.report;
  train_series_ = std::move(clean.series);
  const int64_t n = static_cast<int64_t>(train_series_.size());

  // Degradation ladder, rung 1: trust the period estimate only when the
  // training data actually supports it; otherwise segment on the configured
  // fallback so noisy/aperiodic series degrade instead of crashing.
  const int64_t estimated = config_.use_welch_period_estimator
                                ? signal::EstimatePeriodWelch(train_series_)
                                : signal::EstimatePeriod(train_series_);
  period_confidence_ = signal::PeriodAcfConfidence(train_series_, estimated);
  period_fallback_ = period_confidence_ < config_.min_period_confidence;
  if (period_fallback_) {
    const int64_t fb =
        config_.fallback_period > 0 ? config_.fallback_period : n / 20;
    period_ = std::clamp<int64_t>(fb, 2, std::max<int64_t>(2, n / 3));
  } else {
    period_ = estimated;
  }
  window_length_ = std::max<int64_t>(
      kMinWindowLength,
      static_cast<int64_t>(std::llround(config_.periods_per_window *
                                        static_cast<double>(period_))));
  window_length_ = std::min(window_length_, n / 2);
  stride_ = std::max<int64_t>(1, window_length_ / config_.stride_divisor);

  // Rung 2: a degenerate decomposition (residual with ~no variance, e.g. a
  // pure tone or heavily repaired data) would feed the residual encoder a
  // zero channel; drop the domain and keep the other two instead.
  residual_disabled_ = false;
  if (config_.use_residual) {
    const std::vector<double> residual =
        signal::ResidualComponent(train_series_, period_);
    const double residual_sd = StdDev(residual);
    if (!std::isfinite(residual_sd) ||
        residual_sd < 1e-9 * std::max(1.0, StdDev(train_series_))) {
      config_.use_residual = false;
      residual_disabled_ = true;
    }
  }
  if (config_.EnabledDomains() == 0) {
    return Status::InvalidArgument(
        "no enabled domains remain after degradation");
  }

  const std::vector<std::vector<double>> windows =
      SliceWindows(train_series_, window_length_, stride_);
  if (windows.size() < 2) {
    return Status::InvalidArgument("training series yields too few windows");
  }

  Rng rng(config_.seed);
  model_ = std::make_unique<TriadModel>(config_, &rng);
  TriadTrainer trainer(config_);
  auto stats = trainer.Fit(windows, period_, model_.get(), &rng);
  TRIAD_RETURN_NOT_OK(stats.status());
  train_stats_ = std::move(stats).value();
  train_mass_ =
      std::make_shared<const discord::MassContext>(train_series_);
  return Status::OK();
}

std::vector<std::vector<float>> TriadDetector::EncodeWindows(
    Domain domain, const std::vector<std::vector<double>>& windows) const {
  constexpr int64_t kEncodeBatch = 16;
  const int64_t M = static_cast<int64_t>(windows.size());
  std::vector<std::vector<float>> reps;
  reps.reserve(static_cast<size_t>(M));
  for (int64_t start = 0; start < M; start += kEncodeBatch) {
    const int64_t count = std::min(kEncodeBatch, M - start);
    std::vector<std::vector<double>> chunk(
        windows.begin() + start, windows.begin() + start + count);
    nn::Var x = nn::Constant(BuildDomainBatch(chunk, domain, period_));
    nn::Var r = model_->EncodeNormalized(domain, x);
    const nn::Tensor& value = r.value();
    const int64_t L = value.dim(1);
    for (int64_t b = 0; b < count; ++b) {
      std::vector<float> row(static_cast<size_t>(L));
      std::copy(value.data() + b * L, value.data() + (b + 1) * L, row.begin());
      reps.push_back(std::move(row));
    }
  }
  return reps;
}

Result<DetectionResult> TriadDetector::Detect(
    const std::vector<double>& test_series) const {
  return Detect(test_series, /*memo=*/nullptr, /*global_start=*/0);
}

Result<DetectionResult> TriadDetector::Detect(
    const std::vector<double>& test_series, DetectMemo* memo,
    int64_t global_start) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("Detect called before Fit");
  }
  const int64_t n = static_cast<int64_t>(test_series.size());
  if (n < window_length_) {
    return Status::InvalidArgument("test series shorter than one window");
  }
  // Cooperative deadline checkpoints (common/deadline.h): one per pipeline
  // stage, plus one per discord length inside the sweep (sweep.cc). A pass
  // whose budget ran out fails with DeadlineExceeded at the next checkpoint
  // instead of finishing late — recoverable, like a sanitize rejection.
  TRIAD_RETURN_NOT_OK(CheckPassDeadline());
  TRIAD_ASSIGN_OR_RETURN(
      data::Sanitized clean,
      data::SanitizeSeries(test_series, config_.sanitize));
  const std::vector<double>& series = clean.series;

  DetectionResult result;
  result.sanitize_report = std::move(clean.report);
  result.period_fallback = period_fallback_;
  result.residual_domain_disabled = residual_disabled_;
  result.window_length = window_length_;
  result.stride = stride_;
  result.window_starts = signal::SlidingWindowStarts(n, window_length_, stride_);
  const int64_t M = static_cast<int64_t>(result.window_starts.size());

  // The memo is content-keyed by global stream index, so it is only valid
  // when the buffer passed through the sanitizer untouched; a repaired
  // buffer runs the plain path (ARCHITECTURE.md §8).
  if (memo != nullptr && !result.sanitize_report.clean()) {
    MemoInstruments().memo_bypass->Increment();
    memo = nullptr;
  }
  if (memo != nullptr) memo->EvictBefore(global_start);

  // Inference precision tier, resolved ONCE on the caller's thread (the
  // ScopedForcePrecision override is thread-local; pool lanes spawned below
  // must inherit this resolved value, never re-read the override).
  const simd::Precision prec = simd::ActivePrecision();

  std::vector<std::vector<double>> windows;
  windows.reserve(static_cast<size_t>(M));
  for (int64_t s : result.window_starts) {
    windows.push_back(signal::ExtractWindow(series, s, window_length_));
  }
  // Global key of window i: stream index of its first sample.
  const auto global_key = [&](int64_t i) {
    return global_start + result.window_starts[static_cast<size_t>(i)];
  };

  // ---- stage 1: encode + tri-window nomination ----
  // The three domain encoders run as independent pool tasks (inference
  // only touches read-only model parameters); each similarity matrix then
  // fans its rows out across the pool. Stage timings come from TraceSpans
  // (ARCHITECTURE.md §6); the DetectionResult *_seconds fields are a
  // compatibility view of the same measurements.
  //
  // Memoized passes encode only the windows that newly slid into the
  // buffer: encodings are per-window computations (batch rows are
  // independent, enforced by core_test's EncodeRowsAreBatchIndependent),
  // so a cached row is bitwise the row this pass would recompute. Each
  // domain touches only its own memo slot, so the per-domain fan-out
  // stays race-free.
  trace::TraceSpan encode_span("detector.encode");
  const std::vector<Domain> domains = model_->EnabledDomains();
  std::vector<std::vector<std::vector<float>>> reps(
      domains.size());  // [domain][window][L]
  ParallelFor(
      0, static_cast<int64_t>(domains.size()), /*grain=*/1,
      [&](int64_t begin, int64_t end) {
        for (int64_t di = begin; di < end; ++di) {
          const Domain domain = domains[static_cast<size_t>(di)];
          if (memo == nullptr) {
            reps[static_cast<size_t>(di)] = EncodeWindows(domain, windows);
            continue;
          }
          auto& cache = memo->encodings[static_cast<size_t>(domain)];
          std::vector<int64_t> missing;
          for (int64_t i = 0; i < M; ++i) {
            if (cache.find(global_key(i)) == cache.end()) missing.push_back(i);
          }
          if (!missing.empty()) {
            std::vector<std::vector<double>> missing_windows;
            missing_windows.reserve(missing.size());
            for (int64_t i : missing) {
              missing_windows.push_back(windows[static_cast<size_t>(i)]);
            }
            std::vector<std::vector<float>> fresh =
                EncodeWindows(domain, missing_windows);
            for (size_t k = 0; k < missing.size(); ++k) {
              cache[global_key(missing[k])] = std::move(fresh[k]);
            }
          }
          MemoInstruments().encode_misses->Increment(missing.size());
          MemoInstruments().encode_hits->Increment(
              static_cast<uint64_t>(M) - missing.size());
          auto& out = reps[static_cast<size_t>(di)];
          out.resize(static_cast<size_t>(M));
          for (int64_t i = 0; i < M; ++i) {
            out[static_cast<size_t>(i)] = cache.at(global_key(i));
          }
        }
      });
  result.encode_seconds = encode_span.Stop();
  TRIAD_RETURN_NOT_OK(CheckPassDeadline());

  trace::TraceSpan tri_window_span("detector.tri_window");
  for (size_t di = 0; di < domains.size(); ++di) {
    std::vector<double> sim;
    if (memo == nullptr) {
      sim = MeanPairwiseSimilarity(reps[di], prec);
    } else {
      // Same per-row sums in the same j order as MeanPairwiseSimilarity,
      // with each pairwise dot served from the memo when cached.
      // simd::Dot is bitwise symmetric (per-lane products commute), so one
      // (lo, hi) key serves both orders.
      auto& dots =
          memo->rep_dots[static_cast<size_t>(domains[di])];
      uint64_t hits = 0, misses = 0;
      sim.assign(static_cast<size_t>(M), 0.0);
      for (int64_t i = 0; i < M; ++i) {
        double total = 0.0;
        const auto& a = reps[di][static_cast<size_t>(i)];
        for (int64_t j = 0; j < M; ++j) {
          if (i == j) continue;
          const int64_t gi = global_key(i), gj = global_key(j);
          const auto key = std::make_pair(std::min(gi, gj), std::max(gi, gj));
          auto it = dots.find(key);
          if (it == dots.end()) {
            const auto& b = reps[di][static_cast<size_t>(j)];
            // The memo stores the widened kF32 dot when that tier is
            // active, so memoized and plain passes sum identical values.
            const double dot =
                prec == simd::Precision::kF32
                    ? static_cast<double>(simd::DotF32(
                          a.data(), b.data(), static_cast<int64_t>(a.size())))
                    : simd::Dot(a.data(), b.data(),
                                static_cast<int64_t>(a.size()));
            it = dots.emplace(key, dot).first;
            ++misses;
          } else {
            ++hits;
          }
          total += it->second;
        }
        sim[static_cast<size_t>(i)] =
            M > 1 ? total / static_cast<double>(M - 1) : 0.0;
      }
      MemoInstruments().dot_hits->Increment(hits);
      MemoInstruments().dot_misses->Increment(misses);
    }
    result.candidate_windows.push_back(ArgMin(sim));
    result.domain_similarity.push_back(std::move(sim));
  }
  result.tri_window_seconds = tri_window_span.Stop();

  // ---- stage 2: single-window selection against the training data ----
  TRIAD_RETURN_NOT_OK(CheckPassDeadline());
  trace::TraceSpan selection_span("detector.selection");
  const std::set<int64_t> unique_candidates(result.candidate_windows.begin(),
                                            result.candidate_windows.end());
  const std::vector<int64_t> candidates(unique_candidates.begin(),
                                        unique_candidates.end());
  std::vector<double> deviation(candidates.size(), 0.0);
  std::vector<int64_t> pending;  // indices into `candidates` to compute
  if (memo == nullptr) {
    pending.resize(candidates.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      pending[c] = static_cast<int64_t>(c);
    }
  } else {
    for (size_t c = 0; c < candidates.size(); ++c) {
      const auto it = memo->deviations.find(global_key(candidates[c]));
      if (it != memo->deviations.end()) {
        deviation[c] = it->second;
        MemoInstruments().deviation_hits->Increment();
      } else {
        pending.push_back(static_cast<int64_t>(c));
        MemoInstruments().deviation_misses->Increment();
      }
    }
  }
  ParallelFor(0, static_cast<int64_t>(pending.size()), /*grain=*/1,
              [&](int64_t begin, int64_t end) {
                for (int64_t k = begin; k < end; ++k) {
                  const size_t c =
                      static_cast<size_t>(pending[static_cast<size_t>(k)]);
                  // The fitted context amortizes the train-side FFT and
                  // stats across every candidate scan (ARCHITECTURE.md §7).
                  const std::vector<double> profile =
                      train_mass_->DistanceProfile(
                          windows[static_cast<size_t>(candidates[c])], prec);
                  deviation[c] =
                      *std::min_element(profile.begin(), profile.end());
                }
              });
  if (memo != nullptr) {
    for (int64_t k : pending) {
      const size_t c = static_cast<size_t>(k);
      memo->deviations[global_key(candidates[c])] = deviation[c];
    }
  }
  int64_t selected = candidates.front();
  double best_deviation = -1.0;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (deviation[c] > best_deviation) {
      best_deviation = deviation[c];
      selected = candidates[c];
    }
  }
  result.selected_window = selected;
  result.selection_seconds = selection_span.Stop();

  // ---- stage 3: all-lengths discord sweep around the selected window ----
  TRIAD_RETURN_NOT_OK(CheckPassDeadline());
  trace::TraceSpan discord_span("detector.discord");
  const int64_t w_start = result.window_starts[static_cast<size_t>(selected)];
  const int64_t pad = static_cast<int64_t>(std::llround(
      config_.merlin_padding_windows * static_cast<double>(window_length_)));
  result.search_begin = std::max<int64_t>(0, w_start - pad);
  result.search_end = std::min(n, w_start + window_length_ + pad);
  const int64_t region_len = result.search_end - result.search_begin;
  const int64_t max_len = std::min<int64_t>(
      region_len / 2 - 1,
      static_cast<int64_t>(std::llround(config_.merlin_max_length_windows *
                                        static_cast<double>(window_length_))));
  if (max_len >= config_.merlin_min_length) {
    // Changed-region tracking at region granularity: when the selected
    // window's global span matches a cached entry, the stream content of
    // the whole region is unchanged since that pass — no profile row in it
    // moved — so the cached MerlinResult IS this pass's result and the
    // re-search is skipped outright. Any content change misses the cache
    // and re-runs the full sweep (bit-identity forbids partial
    // floating-point reuse across shifted origins; see ARCHITECTURE.md §8
    // and discord::StompStream for the row-level primitive).
    const discord::MerlinResult* cached = nullptr;
    if (memo != nullptr) {
      const int64_t gb = global_start + result.search_begin;
      const int64_t ge = global_start + result.search_end;
      for (auto& entry : memo->merlin) {
        if (entry.begin == gb && entry.end == ge) {
          entry.last_used = ++memo->tick;
          cached = &entry.result;
          break;
        }
      }
      if (cached != nullptr) {
        MemoInstruments().merlin_hits->Increment();
      } else {
        MemoInstruments().merlin_misses->Increment();
      }
    }
    discord::MerlinResult fresh;
    if (cached == nullptr) {
      const std::vector<double> region(
          series.begin() + result.search_begin,
          series.begin() + result.search_end);
      auto sweep = discord::SweepDiscords(region, config_.merlin_min_length,
                                          max_len, config_.merlin_length_step);
      TRIAD_RETURN_NOT_OK(sweep.status());
      fresh = std::move(sweep).value();
      if (memo != nullptr) {
        if (memo->merlin.size() >= DetectMemo::kMerlinEntries) {
          auto oldest = std::min_element(
              memo->merlin.begin(), memo->merlin.end(),
              [](const DetectMemo::MerlinEntry& a,
                 const DetectMemo::MerlinEntry& b) {
                return a.last_used < b.last_used;
              });
          memo->merlin.erase(oldest);
        }
        memo->merlin.push_back({global_start + result.search_begin,
                                global_start + result.search_end, fresh,
                                ++memo->tick});
      }
      cached = &fresh;
    }
    for (discord::Discord d : cached->discords) {
      d.position += result.search_begin;  // translate to test coordinates
      result.discords.push_back(d);
    }
  }
  result.discord_seconds = discord_span.Stop();

  // ---- stage 4: voting (Eq. 8) + exception rule (Section IV-G) ----
  trace::TraceSpan voting_span("detector.voting");
  VotingResult votes =
      RunVoting(n, {{w_start, window_length_, best_deviation}},
                result.discords, config_.voting);
  result.votes = std::move(votes.votes);
  result.vote_threshold = votes.threshold;
  result.predictions = std::move(votes.predictions);
  result.exception_applied = votes.exception_applied;
  return result;
}

Result<DetectionResult> TriadDetector::DetectEvents(
    const std::vector<double>& test_series, int64_t max_events) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("DetectEvents called before Fit");
  }
  if (max_events < 1) {
    return Status::InvalidArgument("max_events must be >= 1");
  }
  const int64_t n = static_cast<int64_t>(test_series.size());
  if (n < window_length_) {
    return Status::InvalidArgument("test series shorter than one window");
  }
  TRIAD_ASSIGN_OR_RETURN(
      data::Sanitized clean,
      data::SanitizeSeries(test_series, config_.sanitize));
  const std::vector<double>& series = clean.series;

  // Inference precision tier, resolved once on the caller's thread (see
  // the note in Detect; the override is thread-local).
  const simd::Precision prec = simd::ActivePrecision();

  DetectionResult result;
  result.sanitize_report = std::move(clean.report);
  result.period_fallback = period_fallback_;
  result.residual_domain_disabled = residual_disabled_;
  result.window_length = window_length_;
  result.stride = stride_;
  result.window_starts =
      signal::SlidingWindowStarts(n, window_length_, stride_);
  const int64_t M = static_cast<int64_t>(result.window_starts.size());

  std::vector<std::vector<double>> windows;
  windows.reserve(static_cast<size_t>(M));
  for (int64_t s : result.window_starts) {
    windows.push_back(signal::ExtractWindow(series, s, window_length_));
  }

  // Encode + per-domain similarity ranking; each domain nominates its
  // `max_events` least-similar windows. Domain encoders run as independent
  // pool tasks; the nomination logic stays serial (it is cheap and mutates
  // the shared pool set).
  trace::TraceSpan encode_span("detector.encode");
  const std::vector<Domain> domains = model_->EnabledDomains();
  std::vector<std::vector<std::vector<float>>> reps(domains.size());
  ParallelFor(0, static_cast<int64_t>(domains.size()), /*grain=*/1,
              [&](int64_t begin, int64_t end) {
                for (int64_t di = begin; di < end; ++di) {
                  reps[static_cast<size_t>(di)] =
                      EncodeWindows(domains[static_cast<size_t>(di)], windows);
                }
              });
  std::set<int64_t> pool;
  for (size_t di = 0; di < domains.size(); ++di) {
    std::vector<double> sim = MeanPairwiseSimilarity(reps[di], prec);
    std::vector<int64_t> order(static_cast<size_t>(M));
    for (int64_t i = 0; i < M; ++i) order[static_cast<size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      return sim[static_cast<size_t>(a)] < sim[static_cast<size_t>(b)];
    });
    for (int64_t z = 0; z < std::min(max_events, M); ++z) {
      pool.insert(order[static_cast<size_t>(z)]);
    }
    result.candidate_windows.push_back(order[0]);
    result.domain_similarity.push_back(std::move(sim));
  }
  result.encode_seconds = encode_span.Stop();

  // Rank the pool by deviation from the training data and greedily keep up
  // to max_events non-overlapping windows. The per-candidate MASS profiles
  // are independent, so they fan out across the pool.
  trace::TraceSpan selection_span("detector.selection");
  const std::vector<int64_t> pooled(pool.begin(), pool.end());
  std::vector<std::pair<double, int64_t>> ranked(
      pooled.size());  // (-deviation, index)
  ParallelFor(0, static_cast<int64_t>(pooled.size()), /*grain=*/1,
              [&](int64_t begin, int64_t end) {
                for (int64_t c = begin; c < end; ++c) {
                  const int64_t cand = pooled[static_cast<size_t>(c)];
                  const std::vector<double> profile =
                      train_mass_->DistanceProfile(
                          windows[static_cast<size_t>(cand)], prec);
                  ranked[static_cast<size_t>(c)] = {
                      -*std::min_element(profile.begin(), profile.end()),
                      cand};
                }
              });
  std::sort(ranked.begin(), ranked.end());
  std::map<int64_t, double> deviation_by_window;
  for (const auto& [neg_dev, cand] : ranked) {
    deviation_by_window[cand] = -neg_dev;
  }
  std::vector<int64_t> selected;
  for (const auto& [neg_dev, cand] : ranked) {
    bool overlaps = false;
    for (int64_t s : selected) {
      overlaps = overlaps ||
                 std::llabs(result.window_starts[static_cast<size_t>(cand)] -
                            result.window_starts[static_cast<size_t>(s)]) <
                     window_length_;
    }
    if (!overlaps) selected.push_back(cand);
    if (static_cast<int64_t>(selected.size()) >= max_events) break;
  }
  result.selected_window = selected.empty() ? -1 : selected.front();
  result.selection_seconds = selection_span.Stop();

  // Discord search around every selected window.
  trace::TraceSpan discord_span("detector.discord");
  std::vector<WindowVote> window_votes;
  const int64_t pad = static_cast<int64_t>(std::llround(
      config_.merlin_padding_windows * static_cast<double>(window_length_)));
  for (int64_t cand : selected) {
    const int64_t w_start =
        result.window_starts[static_cast<size_t>(cand)];
    window_votes.push_back(
        {w_start, window_length_, deviation_by_window[cand]});
    const int64_t begin = std::max<int64_t>(0, w_start - pad);
    const int64_t end = std::min(n, w_start + window_length_ + pad);
    if (cand == result.selected_window) {
      result.search_begin = begin;
      result.search_end = end;
    }
    const std::vector<double> region(series.begin() + begin,
                                     series.begin() + end);
    const int64_t region_len = end - begin;
    const int64_t max_len = std::min<int64_t>(
        region_len / 2 - 1,
        static_cast<int64_t>(std::llround(
            config_.merlin_max_length_windows *
            static_cast<double>(window_length_))));
    if (max_len < config_.merlin_min_length) continue;
    TRIAD_RETURN_NOT_OK(CheckPassDeadline());  // one checkpoint per region
    auto sweep = discord::SweepDiscords(region, config_.merlin_min_length,
                                        max_len, config_.merlin_length_step);
    TRIAD_RETURN_NOT_OK(sweep.status());
    for (discord::Discord d : sweep.value().discords) {
      d.position += begin;
      result.discords.push_back(d);
    }
  }
  result.discord_seconds = discord_span.Stop();

  trace::TraceSpan voting_span("detector.voting");
  VotingResult votes =
      RunVoting(n, window_votes, result.discords, config_.voting);
  result.votes = std::move(votes.votes);
  result.vote_threshold = votes.threshold;
  result.predictions = std::move(votes.predictions);
  result.exception_applied = votes.exception_applied;
  return result;
}

namespace {

constexpr char kCheckpointMagic[4] = {'T', 'R', 'D', 'T'};
// Version 2 added the sanitize options, period-fallback config and the
// graceful-degradation state (ARCHITECTURE.md §5); version-1 checkpoints
// still load with the defaults for those fields. Version 3 wraps the body
// in a CRC32 + length header so torn or bit-flipped checkpoints fail Load
// with DataLoss instead of silently decoding garbage, and Save writes the
// whole file atomically (write-temp + fsync + rename) so a crash mid-save
// can never leave a truncated file behind ModelRegistry warm-start
// (ARCHITECTURE.md §10). v1/v2 checkpoints still load unverified.
constexpr uint32_t kCheckpointVersion = 3;

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

void WriteConfig(std::ostream& out, const TriadConfig& c) {
  WritePod(out, c.periods_per_window);
  WritePod(out, c.stride_divisor);
  WritePod(out, c.depth);
  WritePod(out, c.hidden_dim);
  WritePod(out, c.kernel_size);
  WritePod(out, c.alpha);
  WritePod(out, c.temperature);
  WritePod(out, c.batch_size);
  WritePod(out, c.learning_rate);
  WritePod(out, c.epochs);
  WritePod(out, c.validation_fraction);
  WritePod(out, c.seed);
  WritePod(out, static_cast<uint8_t>(c.use_temporal));
  WritePod(out, static_cast<uint8_t>(c.use_frequency));
  WritePod(out, static_cast<uint8_t>(c.use_residual));
  WritePod(out, static_cast<uint8_t>(c.use_intra_loss));
  WritePod(out, static_cast<uint8_t>(c.use_inter_loss));
  WritePod(out, c.top_windows_per_domain);
  WritePod(out, c.merlin_padding_windows);
  WritePod(out, c.merlin_min_length);
  WritePod(out, c.merlin_max_length_windows);
  WritePod(out, c.merlin_length_step);
  WritePod(out, static_cast<uint8_t>(c.voting.weighting));
  WritePod(out, static_cast<uint8_t>(c.voting.threshold_rule));
  WritePod(out, c.voting.threshold_quantile);
  WritePod(out, static_cast<uint8_t>(c.use_welch_period_estimator));
  // version >= 2
  WritePod(out, c.sanitize.min_length);
  WritePod(out, c.sanitize.max_interpolate_gap);
  WritePod(out, c.sanitize.stuck_run_length);
  WritePod(out, c.sanitize.max_stuck_fraction);
  WritePod(out, c.sanitize.glitch_sigmas);
  WritePod(out, c.sanitize.max_damage_fraction);
  WritePod(out, static_cast<uint8_t>(c.sanitize.repair));
  WritePod(out, c.fallback_period);
  WritePod(out, c.min_period_confidence);
}

bool ReadConfig(std::istream& in, uint32_t version, TriadConfig* c) {
  uint8_t b1, b2, b3, b4, b5;
  const bool ok =
      ReadPod(in, &c->periods_per_window) && ReadPod(in, &c->stride_divisor) &&
      ReadPod(in, &c->depth) && ReadPod(in, &c->hidden_dim) &&
      ReadPod(in, &c->kernel_size) && ReadPod(in, &c->alpha) &&
      ReadPod(in, &c->temperature) && ReadPod(in, &c->batch_size) &&
      ReadPod(in, &c->learning_rate) && ReadPod(in, &c->epochs) &&
      ReadPod(in, &c->validation_fraction) && ReadPod(in, &c->seed) &&
      ReadPod(in, &b1) && ReadPod(in, &b2) && ReadPod(in, &b3) &&
      ReadPod(in, &b4) && ReadPod(in, &b5) &&
      ReadPod(in, &c->top_windows_per_domain) &&
      ReadPod(in, &c->merlin_padding_windows) &&
      ReadPod(in, &c->merlin_min_length) &&
      ReadPod(in, &c->merlin_max_length_windows) &&
      ReadPod(in, &c->merlin_length_step);
  if (!ok) return false;
  c->use_temporal = b1 != 0;
  c->use_frequency = b2 != 0;
  c->use_residual = b3 != 0;
  c->use_intra_loss = b4 != 0;
  c->use_inter_loss = b5 != 0;
  uint8_t weighting, rule, welch;
  if (!ReadPod(in, &weighting) || weighting > 2 || !ReadPod(in, &rule) ||
      rule > 1 || !ReadPod(in, &c->voting.threshold_quantile) ||
      !ReadPod(in, &welch)) {
    return false;
  }
  c->voting.weighting = static_cast<VoteWeighting>(weighting);
  c->voting.threshold_rule = static_cast<ThresholdRule>(rule);
  c->use_welch_period_estimator = welch != 0;
  if (version >= 2) {
    uint8_t repair;
    if (!ReadPod(in, &c->sanitize.min_length) ||
        !ReadPod(in, &c->sanitize.max_interpolate_gap) ||
        !ReadPod(in, &c->sanitize.stuck_run_length) ||
        !ReadPod(in, &c->sanitize.max_stuck_fraction) ||
        !ReadPod(in, &c->sanitize.glitch_sigmas) ||
        !ReadPod(in, &c->sanitize.max_damage_fraction) ||
        !ReadPod(in, &repair) || !ReadPod(in, &c->fallback_period) ||
        !ReadPod(in, &c->min_period_confidence)) {
      return false;
    }
    c->sanitize.repair = repair != 0;
  }
  return true;
}

}  // namespace

Status TriadDetector::Save(const std::string& path) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("Save called before Fit");
  }
  std::ostringstream body(std::ios::binary);
  WriteConfig(body, config_);
  WritePod(body, period_);
  WritePod(body, window_length_);
  WritePod(body, stride_);
  WritePod(body, period_confidence_);
  WritePod(body, static_cast<uint8_t>(period_fallback_));
  WritePod(body, static_cast<uint8_t>(residual_disabled_));
  WritePod(body, static_cast<uint64_t>(train_series_.size()));
  body.write(reinterpret_cast<const char*>(train_series_.data()),
             static_cast<std::streamsize>(train_series_.size() *
                                          sizeof(double)));
  std::vector<nn::Tensor> weights;
  for (const nn::Var& p : model_->Parameters()) weights.push_back(p.value());
  TRIAD_RETURN_NOT_OK(nn::WriteTensors(body, weights));
  if (!body) return Status::IoError("checkpoint serialization failed");
  return io::WriteChecksummedFile(path, kCheckpointMagic, kCheckpointVersion,
                                  body.str());
}

Result<TriadDetector> TriadDetector::Load(const std::string& path) {
  // Decoding the body is identical across versions; what differs is where
  // the trusted bytes come from. v3+ files are a single checksummed blob —
  // io::ReadChecksummedFile verifies the CRC before a single body byte is
  // decoded, so torn or bit-flipped checkpoints surface as DataLoss (which
  // ModelRegistry treats as quarantine-worthy) instead of misparsing.
  // v1/v2 files stream-decode unverified, as they always have.
  const auto parse_body = [&path](std::istream& in,
                                  uint32_t version) -> Result<TriadDetector> {
    TriadConfig config;
    if (!ReadConfig(in, version, &config)) {
      return Status::InvalidArgument("corrupt checkpoint config");
    }
    TriadDetector detector(config);
    uint64_t train_size = 0;
    if (!ReadPod(in, &detector.period_) ||
        !ReadPod(in, &detector.window_length_) ||
        !ReadPod(in, &detector.stride_)) {
      return Status::InvalidArgument("corrupt checkpoint header");
    }
    if (version >= 2) {
      uint8_t fallback, residual_off;
      if (!ReadPod(in, &detector.period_confidence_) ||
          !ReadPod(in, &fallback) || !ReadPod(in, &residual_off)) {
        return Status::InvalidArgument("corrupt checkpoint header");
      }
      detector.period_fallback_ = fallback != 0;
      detector.residual_disabled_ = residual_off != 0;
    }
    if (!ReadPod(in, &train_size) || train_size > (1ull << 32)) {
      return Status::InvalidArgument("corrupt checkpoint header");
    }
    detector.train_series_.resize(static_cast<size_t>(train_size));
    in.read(reinterpret_cast<char*>(detector.train_series_.data()),
            static_cast<std::streamsize>(train_size * sizeof(double)));
    if (!in) return Status::IoError("checkpoint truncated: " + path);
    detector.train_mass_ =
        std::make_shared<const discord::MassContext>(detector.train_series_);

    Rng rng(config.seed);
    detector.model_ = std::make_unique<TriadModel>(config, &rng);
    TRIAD_ASSIGN_OR_RETURN(std::vector<nn::Tensor> weights,
                           nn::ReadTensors(in));
    TRIAD_RETURN_NOT_OK(
        nn::AssignParameters(weights, detector.model_->Parameters()));
    return detector;
  };

  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a TriAD checkpoint: " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version) || version < 1) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  if (version <= 2) return parse_body(in, version);
  in.close();
  uint32_t stored_version = 0;
  TRIAD_ASSIGN_OR_RETURN(
      std::string payload,
      io::ReadChecksummedFile(path, kCheckpointMagic, &stored_version));
  if (stored_version > kCheckpointVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  std::istringstream body(payload, std::ios::binary);
  return parse_body(body, stored_version);
}

}  // namespace triad::core
