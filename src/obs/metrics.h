// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Aggregate companion to the trace recorder (obs/trace.h): where the trace
// answers "when did it happen", the registry answers "how much, in total".
// Instruments are created on first use, live for the registry's lifetime
// (stable addresses — instrument handles may be cached), and are updated
// lock-free with relaxed atomics, so hot paths (pool dispatch, kernel
// launches) can record without contention.  Snapshots serialize to JSON for
// the benches' --metrics-out artifact and for tools/check_trace.py's gauge
// assertions.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace fastsc::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  /// Returns the value this add produced.
  std::int64_t add(std::int64_t delta = 1) noexcept {
    return value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins floating point metric.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram over k edges -> k+1 buckets.  Bucket i counts
/// values v with edges[i-1] <= v < edges[i] (edges[-1] = -inf, edges[k] =
/// +inf): a value exactly on an edge lands in the bucket whose *lower*
/// bound it is.  tests/test_metrics_registry.cpp pins these edge semantics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> edges);

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& edges() const noexcept {
    return edges_;
  }
  /// Count in bucket i (0 <= i <= edges().size()).
  [[nodiscard]] std::int64_t bucket_count(usize i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t total_count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> edges_;  // strictly increasing
  std::vector<std::atomic<std::int64_t>> counts_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Thread-safe named-instrument registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Instrument lookup-or-create; the returned reference stays valid for
  /// the registry's lifetime.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// `edges` is used only on first creation; a later call with the same
  /// name returns the existing histogram unchanged.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> edges);

  /// Convenience setter for snapshot-style publication.
  void set_gauge(std::string_view name, double v) { gauge(name).set(v); }

  [[nodiscard]] usize instrument_count() const;
  void clear();

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} snapshot.
  void write_json(std::ostream& os) const;
  bool write_json_file(const std::string& path) const;

  /// Prometheus text exposition format (0.0.4): counters as `counter`,
  /// gauges as `gauge`, histograms as cumulative `le` buckets with _sum and
  /// _count.  Metric names are sanitized (dots -> underscores).
  void write_prometheus(std::ostream& os) const;
  bool write_prometheus_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // guards the maps, not the instruments
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Process-wide registry (what the benches snapshot to --metrics-out).
MetricsRegistry& metrics();

/// Quantile estimate (q in [0, 1]) from a histogram via linear interpolation
/// inside the bucket containing the target rank — the standard
/// histogram_quantile() approximation.  The open-ended first/last buckets
/// clamp to their finite edge.  Returns 0 for an empty histogram.
[[nodiscard]] double histogram_quantile(const Histogram& h, double q);

}  // namespace fastsc::obs
