#pragma once

/// \file spans.hpp
/// In-memory span log of the benchmark's own layer calls. A span has a
/// name, a start, an end and the span that was open when it began (its
/// parent); a layer's self time is its duration minus the part its direct
/// children cover. Spans are recorded by one thread (rank 0 in
/// multi-rank runs) and written out when the benchmark ends.

#include <chrono>
#include <string>
#include <vector>

namespace jsbench {

/// One recorded span (times in seconds since the log was created).
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;  ///< -1 = top level
  double start = 0.0;
  double end = 0.0;
  [[nodiscard]] double seconds() const { return end - start; }
};

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// Open a span under the innermost open one; returns its id.
  int begin(const std::string& name);
  /// Close span `id` (must be the innermost open span).
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self times (duration minus direct children) of every span `name`.
  [[nodiscard]] std::vector<double> self_times(const std::string& name) const;

  /// Write every span as a JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] double now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), id_(log != nullptr ? log->begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace jsbench
