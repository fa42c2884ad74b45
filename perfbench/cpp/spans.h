#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double Now();

/// \brief Span recorder for the traced run.
///
/// Spans are opened and closed on the benchmark's own thread around each
/// call into a program layer; each keeps its name, start, end and parent
/// (the span open when it began). They stay in memory until the run ends.
/// A disabled recorder keeps nothing, so the untraced run pays only the
/// two clock reads every Scope makes to time its call.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id, or -1 when disabled.
  int Begin(const char* name, double start);
  void End(int id, double end);
  /// Records an already finished span under `parent` (used for the stage
  /// timings a DetectionResult reports for the interval of its Detect).
  void AddChild(int parent, const char* name, double start, double end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed self time (duration minus what its children cover) of every
  /// span called `name`.
  double Self(const std::string& name) const;
  /// Durations of every span called `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;
  /// Summed self time of every span that starts in [begin, end).
  double SelfWithin(double begin, double end) const;
  /// Seconds it takes to record as many spans as this tracer holds: the
  /// tracing overhead of the traced run, measured on a scratch tracer.
  double RecordingCost() const;

 private:
  /// Self time of every span, computed once all spans are closed.
  const std::vector<double>& SelfTimes() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  mutable std::vector<double> self_;  ///< cache for SelfTimes()
};

/// \brief Times one call into a layer; records it as a span when the
/// tracer is enabled. Stop() returns the measured seconds in either mode.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name);
  ~Scope() { Stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  double Stop();
  int id() const { return id_; }
  double start() const { return start_; }

 private:
  Tracer* tracer_;
  int id_;
  double start_;
  double seconds_ = -1.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
