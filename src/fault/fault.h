// Deterministic, seeded fault injection for the device runtime and solver.
//
// The pipeline threads every Lanczos iteration through a CPU<->GPU
// reverse-communication loop, so a single transient transfer fault or a
// device OOM would otherwise abort a whole run.  This module lets tests and
// benches *plan* such faults deterministically and exercise the graceful
// degradation paths (transfer retry in device/, the eigensolver fallback
// ladder and IRLM checkpoint/resume in core/ and lanczos/).
//
// Instrumented call sites ask `fault::triggered("site.name")`; the site
// names in the tree today:
//
//   device.alloc        DeviceContext::record_alloc  -> DeviceOutOfMemory
//   device.h2d/d2h      DeviceBuffer synchronous copies
//   copy.h2d/d2h        copy_h2d/copy_d2h (SpMV wave x/y segment staging)
//   d2d.*               DeviceGroup peer copies (d2d.halo, d2d.allreduce,
//                       d2d.isd_allgather, d2d.centroid_bcast/reduce)
//   lanczos.convergence SymLanczos restart check (simulated solver stall)
//
// Bitflip (silent-corruption) sites corrupt payloads in place instead of
// throwing — see fault::corrupt_* below:
//
//   bitflip.csr.values      resident normalized CSR value array
//   bitflip.basis.column    Lanczos basis column staged back from the device
//   bitflip.device.buffer   staged host->device transfer buffer
//   bitflip.kmeans.dist     k-means distance block S after the GEMM
//   bitflip.checkpoint.blob serialized LanczosCheckpoint payload
//   bitflip.cache.entry     ResultCache entry at rest
//
// Transfer sites throw the *transient* DeviceTransferError, absorbed by the
// bounded retry in device/device.h; device.alloc throws DeviceOutOfMemory,
// which is permanent and exercises the DegradationPolicy fallback chain.
//
// A FaultPlan selects sites by exact name or trailing-'*' prefix, by
// nth-occurrence or by probability under the plan seed, each rule bounded
// by a trigger count.  Plans arm the process-wide Injector either per run
// (SpectralConfig::faults via an ArmScope) or globally (FASTSC_FAULTS).
// Arming resets all occurrence counters and re-seeds the per-rule RNGs, so
// the same plan reproduces the same faults.  With nothing armed and
// recording off, triggered() is a single relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace fastsc::fault {

/// One clause of a plan: where and when to inject.
struct FaultRule {
  /// Site name to match: exact, or a prefix when it ends in '*'
  /// (e.g. "device.*" matches device.alloc and device.h2d).
  std::string site;
  /// 1-based occurrence at which to start triggering (per matching site);
  /// 0 selects probability mode instead.
  std::uint64_t nth = 1;
  /// Per-occurrence trigger probability when nth == 0, drawn from a rule
  /// RNG deterministically seeded by the plan seed.
  double probability = 0;
  /// Maximum triggers for this rule; 0 = unbounded.  In nth mode the rule
  /// fires at occurrences nth, nth+1, ..., nth+count-1.
  std::uint64_t count = 1;

  [[nodiscard]] bool matches_site(std::string_view s) const noexcept;
};

/// A deterministic set of fault rules plus the seed for probability rules.
///
/// Text syntax (FASTSC_FAULTS / --faults): clauses separated by ';', each a
/// comma-separated list of key=value pairs with keys site, nth, p (or
/// probability), count, and seed (plan-wide):
///
///   site=device.h2d,nth=3
///   site=lanczos.convergence,p=0.5,count=10;seed=7
struct FaultPlan {
  std::vector<FaultRule> rules;
  std::uint64_t seed = 42;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }

  /// Parse the text syntax above; throws std::invalid_argument on a
  /// malformed spec.
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  /// Round-trippable text form (parse(to_string()) == *this).
  [[nodiscard]] std::string to_string() const;
};

/// Per-site bookkeeping, visible through Injector::sites_seen().
struct SiteStats {
  std::uint64_t occurrences = 0;
  std::uint64_t triggers = 0;
};

/// Process-wide fault injector.  All mutation is mutex-guarded; the hot
/// disabled-path check lives in fault::triggered() below.
class Injector {
 public:
  Injector() = default;
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Install `plan` and reset all occurrence counters, rule trigger counts
  /// and rule RNGs — arming the same plan twice reproduces the same faults.
  void arm(FaultPlan plan);
  void disarm();
  [[nodiscard]] bool armed() const;
  [[nodiscard]] FaultPlan plan() const;

  /// Recording mode: count site occurrences without any plan (site
  /// discovery for sweep tests).  Also resets the counters when turned on.
  void set_recording(bool on);
  [[nodiscard]] bool recording() const;

  /// Snapshot of every site consulted since the last arm/recording reset.
  [[nodiscard]] std::map<std::string, SiteStats> sites_seen() const;

  /// Total triggers since the last arm().
  [[nodiscard]] std::uint64_t injected_total() const;

  /// Slow path behind fault::triggered(); returns true when a rule fires.
  [[nodiscard]] bool on_site(std::string_view site);

  /// Fire decision plus the deterministic corruption stream for bitflip
  /// sites: `occurrence` is the 1-based site occurrence and `seed` the plan
  /// seed, so fault::corrupt_* derive the flipped element and bit purely
  /// from (plan seed, site, occurrence).
  struct FireInfo {
    bool fired = false;
    std::uint64_t occurrence = 0;
    std::uint64_t seed = 0;
  };
  [[nodiscard]] FireInfo on_site_info(std::string_view site);

 private:
  struct RuleState {
    FaultRule rule;
    std::uint64_t triggers = 0;
    Rng rng{0};
  };

  void reset_counts_locked();
  void refresh_active_locked();

  mutable std::mutex mu_;
  bool armed_ = false;
  bool recording_ = false;
  std::uint64_t seed_ = 42;
  std::vector<RuleState> rules_;
  std::map<std::string, SiteStats, std::less<>> sites_;
  std::uint64_t injected_total_ = 0;
};

/// The process-wide injector.  First access arms FASTSC_FAULTS if set.
Injector& injector();

namespace detail {
/// True iff a plan is armed or recording is on (the one relaxed load the
/// disabled path pays).
extern std::atomic<bool> g_active;
}  // namespace detail

[[nodiscard]] inline bool active() noexcept {
  return detail::g_active.load(std::memory_order_relaxed);
}

/// Hot-path site check: one relaxed atomic load when injection is off.
[[nodiscard]] inline bool triggered(std::string_view site) {
  if (!detail::g_active.load(std::memory_order_relaxed)) return false;
  return injector().on_site(site);
}

/// Bitflip corruption family.  Unlike the throwing sites above, these sites
/// (all named "bitflip.<payload>") corrupt a live payload in place when a
/// rule fires: one bit of one element is flipped, chosen deterministically
/// from (plan seed, site, occurrence).  Nothing throws — detection is the
/// job of the ABFT checksums, invariant sentinels and CRC frames downstream.
///
/// The scalar variant flips an exponent bit of a *significant* element
/// (|v| >= 1/4 of the payload's max magnitude) so the perturbation is at
/// least a factor-2 change of a representative element: a flip in a
/// denormal tail would be both undetectable and harmless, which would make
/// the nth=1 sweep tests vacuous.  The byte variant flips any bit anywhere
/// and is meant for CRC-framed payloads where the compare is exact.
///
/// All variants return true iff a rule fired (the payload was modified).
bool corrupt_scalars(std::string_view site, real* data, usize count);
bool corrupt_bytes(std::string_view site, void* data, usize bytes);

/// RAII arming for a per-run plan (SpectralConfig::faults); restores the
/// previously armed plan — e.g. a process-wide FASTSC_FAULTS one — on exit.
class ArmScope {
 public:
  explicit ArmScope(const FaultPlan& plan);
  ~ArmScope();
  ArmScope(const ArmScope&) = delete;
  ArmScope& operator=(const ArmScope&) = delete;

 private:
  FaultPlan previous_;
  bool was_armed_;
};

}  // namespace fastsc::fault
