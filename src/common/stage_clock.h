// StageClock: named accumulating timers for pipeline-stage reports.
//
// The paper reports per-stage times (similarity matrix, sparse eigensolver,
// k-means) for each implementation; StageClock is the common mechanism every
// pipeline and bench uses to produce those rows.
#pragma once

#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/timer.h"
#include "common/types.h"

namespace fastsc {

/// Accumulates wall time into named stages.  The pipeline owns one clock
/// and start()/stop()s its own sequential stages from one driving thread.
/// Every member locks, so another thread may read or copy the clock while
/// the stages run.
///
/// start() calls may nest: starting stage B while stage A runs *pauses* A,
/// and the matching stop() resumes it, so each stage accumulates exclusive
/// (self) time and total_seconds() never double-counts a nested interval.
/// Flat start/stop pairs behave exactly as before.
class StageClock {
 public:
  StageClock() = default;
  // Copy/move keep the recorded times but not the lock (SpectralResult is
  // copied between backends in the benches).
  StageClock(const StageClock& other);
  StageClock& operator=(const StageClock& other);
  StageClock(StageClock&& other) noexcept;
  StageClock& operator=(StageClock&& other) noexcept;

  /// Start accumulation for `stage`.  If another stage is running it is
  /// paused (its elapsed time accumulated) and resumed by the matching
  /// stop().
  void start(std::string_view stage);

  /// Stop the innermost running stage, adding its elapsed time, and resume
  /// the stage it preempted (if any).  No-op when nothing is running.
  void stop();

  /// Accumulated seconds for a stage; 0 if the stage never ran.
  [[nodiscard]] double seconds(std::string_view stage) const;

  /// Total over all stages.
  [[nodiscard]] double total_seconds() const;

  /// Stage names in first-start order.
  [[nodiscard]] std::vector<std::string> stages() const;

  /// How many stages are currently running (nesting depth).
  [[nodiscard]] usize depth() const;

  /// Remove all recorded stages.
  void clear();

 private:
  struct Entry {
    std::string name;
    double seconds = 0;
  };

  Entry& entry_locked(std::string_view stage);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  WallTimer timer_;  // measures the innermost running stage only
  std::vector<int> running_;  // stack of indices into entries_
};

}  // namespace fastsc
