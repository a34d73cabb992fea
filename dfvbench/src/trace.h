// Spans recorded from outside the library, around the benchmark's calls into
// each layer's public functions.
//
// A span has a name, start and end (ns since the trace epoch), the span that
// caused it, the verification block it belongs to (-1 = none) and a small map
// of counters measured at the same boundary.  Spans are kept in memory and
// written out when the run ends.  With tracing off every Span is inert: the
// constructor tests one pointer and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "jsonw.h"

namespace dfvbench {

struct SpanRecord {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;
  int block = -1;
  std::vector<std::pair<std::string, double>> counters;

  double seconds() const { return static_cast<double>(endNs - startNs) * 1e-9; }
};

class Trace {
 public:
  Trace() : epoch_(std::chrono::steady_clock::now()) {}

  std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Opens a span; `parent` -1 means the calling thread's innermost open span.
  int open(std::string name, int block, int parent);
  void close(int id);
  void counter(int id, std::string key, double value);
  /// Seconds between open and close of a closed span.
  double seconds(int id) const;

  /// Every span recorded so far (the caller must not race open/close).
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Drops every recorded span (between passes).
  void clear();

  /// Per span name: count, total seconds and self seconds (duration minus
  /// the part of it child spans cover; children of one parent that overlap
  /// on several threads can push self time below zero).
  struct NameTotals {
    std::uint64_t count = 0;
    double totalS = 0.0;
    double selfS = 0.0;
  };
  std::map<std::string, NameTotals> totalsByName() const;
  /// Sum of every counter named `key` over all spans, plus the durations of
  /// spans whose name is `key`.
  std::map<std::string, double> sums() const;

  void writeSpans(JsonWriter& w) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

/// RAII span: records nothing when `trace` is null.
class Span {
 public:
  Span(Trace* trace, std::string name, int block = -1, int parent = -1)
      : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->open(std::move(name), block, parent);
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return trace_ != nullptr; }
  int id() const { return id_; }
  void counter(std::string key, double value) {
    if (trace_ != nullptr) trace_->counter(id_, std::move(key), value);
  }
  /// Closes the span early (idempotent) and returns its duration.
  double end() {
    if (trace_ == nullptr) return 0.0;
    if (!closed_) {
      trace_->close(id_);
      closed_ = true;
    }
    return trace_->seconds(id_);
  }

 private:
  Trace* trace_;
  int id_ = -1;
  bool closed_ = false;
};

}  // namespace dfvbench
