// In-memory span recorder for the traced replay.
//
// The benchmark records spans from its own code, around each call into a
// layer's public function, so the program under test is unchanged.  Spans
// are kept in memory while the run measures and written out once at the end
// as Chrome trace-event JSON.  A span's self time is its duration minus the
// time its direct children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t op = 0;      ///< replayed op the span belongs to
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 at the root
  double begin_us = 0;       ///< since the recorder's epoch
  double end_us = 0;
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open span and returns its index.
  std::size_t open(std::string name, std::uint64_t op);
  void close(std::size_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Sum of self time in seconds per span name, over the spans of `op`.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::uint64_t op) const;

  /// Chrome trace-event JSON ("X" complete events, one track per op).
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t op)
      : rec_(rec), index_(rec.open(std::move(name), op)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::size_t index_;
};

}  // namespace perfbench
