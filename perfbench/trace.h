// In-memory span recorder for the traced replay. The replay is single
// threaded, so a stack of open spans gives each new span its parent.
// Spans are written out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal: span names are static
  uint64_t op = 0;        // the replayed operation's id
  int64_t parent = -1;    // index into the span list; -1 = root
  double start_us = 0;    // since the tracer was created
  double end_us = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  /// Opens a span under the innermost open one. Returns its index, or
  /// -1 when tracing is off.
  int64_t Begin(const char* name, uint64_t op) {
    if (!on_) return -1;
    Span span;
    span.name = name;
    span.op = op;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_us = NowUs();
    spans_.push_back(span);
    open_.push_back(static_cast<int64_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(int64_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_us = NowUs();
    open_.pop_back();
  }
  /// Records a closed child of `parent` whose interval the caller knows
  /// rather than timed (the server-side execution inside a wire span,
  /// as reported by the server).
  void AddChild(int64_t parent, const char* name, double start_us,
                double end_us) {
    if (parent < 0) return;
    Span span;
    span.name = name;
    span.op = spans_[static_cast<size_t>(parent)].op;
    span.parent = parent;
    span.start_us = start_us;
    span.end_us = end_us;
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the durations of its direct children
  /// (children of one span never overlap in a single-threaded replay).
  std::vector<double> SelfTimesUs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_us - spans_[i].start_us;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -= s.end_us - s.start_us;
      }
    }
    return self;
  }

  /// Durations (or self times) grouped by span name.
  std::map<std::string, std::vector<double>> ByName(bool self_time) const {
    std::map<std::string, std::vector<double>> out;
    const std::vector<double> self = SelfTimesUs();
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(
          self_time ? self[i] : spans_[i].end_us - spans_[i].start_us);
    }
    return out;
  }

  /// One JSON object per line: name, op, id, parent, start/end in µs.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%lld,\"op\":%llu,\"name\":\"%s\","
                   "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   i, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op), s.name, s.start_us,
                   s.end_us);
    }
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span: opens on construction, closes at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), index_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
