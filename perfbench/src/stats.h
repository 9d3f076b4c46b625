// Summary statistics for the benchmark's samples.
#pragma once

#include <vector>

namespace perfbench {

/// Arithmetic mean of `xs`; 0 when empty.
[[nodiscard]] double mean(const std::vector<double>& xs);

/// Median of `xs` (mean of the two middle values for an even count); 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> xs);

/// The highest percentile that still has at least `beyond` samples above it:
/// the (beyond+1)-th largest sample, at percentile (n - beyond) / n.  With
/// `beyond` or fewer samples no such percentile exists; the maximum is
/// returned and `percentile` reads 100.
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> xs, std::size_t beyond = 10);

/// Peak resident set size of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Online processor count of this machine.
[[nodiscard]] unsigned nproc();

}  // namespace perfbench
