// Minimal leveled logging to stderr.
//
// Benches and examples print their primary output (tables) to stdout; the
// logger is for progress/diagnostic lines so that `bench > table.txt` stays
// clean.  Level is controlled programmatically or by FASTSC_LOG=trace|debug|
// info|warn|error|off.  Every line carries a monotonic timestamp (seconds
// since process start) and a small per-thread id so interleaved worker
// output can be attributed; the ids match the wall-clock track ids
// in obs/trace.h traces.  The `trace` level additionally makes obs
// ScopedSpan mirror span begin/end to stderr.
#pragma once

#include <cstdint>
#include <sstream>
#include <string_view>

namespace fastsc {

enum class LogLevel {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5
};

/// Current global level (initialized from FASTSC_LOG on first use).
LogLevel log_level();
void set_log_level(LogLevel level);

/// Small dense id for the calling thread (main thread observes 1; each new
/// thread gets the next integer on first call).  Used as the log-line
/// thread tag and as the wall-clock track id in traces.
[[nodiscard]] std::uint32_t small_thread_id();

namespace detail {
void log_line(LogLevel level, std::string_view msg);
}

/// Streaming log statement: FASTSC_LOG_INFO("built graph, nnz=" << nnz);
#define FASTSC_LOG_AT(level, expr)                                      \
  do {                                                                  \
    if (static_cast<int>(level) >= static_cast<int>(::fastsc::log_level())) { \
      std::ostringstream fastsc_log_os;                                 \
      fastsc_log_os << expr;                                            \
      ::fastsc::detail::log_line(level, fastsc_log_os.str());           \
    }                                                                   \
  } while (false)

#define FASTSC_LOG_TRACE(expr) FASTSC_LOG_AT(::fastsc::LogLevel::kTrace, expr)
#define FASTSC_LOG_DEBUG(expr) FASTSC_LOG_AT(::fastsc::LogLevel::kDebug, expr)
#define FASTSC_LOG_INFO(expr) FASTSC_LOG_AT(::fastsc::LogLevel::kInfo, expr)
#define FASTSC_LOG_WARN(expr) FASTSC_LOG_AT(::fastsc::LogLevel::kWarn, expr)
#define FASTSC_LOG_ERROR(expr) FASTSC_LOG_AT(::fastsc::LogLevel::kError, expr)

}  // namespace fastsc
