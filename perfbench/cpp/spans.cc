#include "spans.h"

#include <algorithm>
#include <utility>

namespace perfbench {

double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

int Tracer::Begin(const char* name, double start) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, start, start, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id, double end) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = end;
  // Spans close in LIFO order on the one recording thread.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::AddChild(int parent, const char* name, double start,
                      double end) {
  if (!enabled_ || parent < 0) return;
  spans_.push_back({name, start, end, parent});
}

const std::vector<double>& Tracer::SelfTimes() const {
  if (self_.size() == spans_.size()) return self_;
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  self_.assign(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double reach = span.start;
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, reach);
      const double hi = std::min(e, span.end);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self_[i] = (span.end - span.start) - covered;
  }
  return self_;
}

double Tracer::Self(const std::string& name) const {
  const std::vector<double>& self = SelfTimes();
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += self[i];
  }
  return total;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

double Tracer::SelfWithin(double begin, double end) const {
  const std::vector<double>& self = SelfTimes();
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].start >= begin && spans_[i].start < end) total += self[i];
  }
  return total;
}

double Tracer::RecordingCost() const {
  Tracer scratch(true);
  const double start = Now();
  for (const Span& s : spans_) {
    Scope span(&scratch, s.name.c_str());
  }
  return Now() - start;
}

Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), start_(Now()) {
  id_ = tracer_->Begin(name, start_);
}

double Scope::Stop() {
  if (seconds_ < 0.0) {
    const double end = Now();
    tracer_->End(id_, end);
    seconds_ = end - start_;
  }
  return seconds_;
}

}  // namespace perfbench
