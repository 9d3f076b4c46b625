#include "stats.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>

namespace perfbench {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double sum = 0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

Tail tail(std::vector<double> xs, std::size_t beyond) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n <= beyond) {
    t.value = xs.back();
    return t;
  }
  t.value = xs[n - 1 - beyond];
  t.percentile = 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned nproc() {
  // The CPUs this process may run on, as the nproc command counts them.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

}  // namespace perfbench
