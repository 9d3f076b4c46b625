// DeviceGroup: N simulated devices with a modeled peer-to-peer link.
//
// The paper runs on a single K20c; its natural scale-out is the multi-GPU
// design of Sgherzi et al. (arXiv:2201.07498): 1-D row-partitioned
// operators, halo/allgather exchange of the dense vector, and allreduce for
// the small reductions.  This module supplies the runtime half of that
// design:
//
//   * each device is a full DeviceContext — its own arena accounting,
//     counters, attribution registry, and virtual timeline, with trace
//     tracks (2i+1, 2i+2) inside obs::kVirtualPid so all N timelines
//     coexist in one trace;
//   * peer copies (copy_peer) move bytes device-to-device without touching
//     the host, metered on the *destination* context's link engine for the
//     TransferModel's D2D duration (distinct bandwidth/latency from PCIe);
//   * rollup_counters / rollup_attribution reconcile the per-device books
//     into group totals — the conservation law tests/test_device_group.cpp
//     asserts.
//
// Peer copies carry fault sites ("d2d.halo", "d2d.allreduce", ...) checked
// *before* any data moves, so the bounded transfer retry absorbs injected
// transient faults exactly like the host-link copy paths.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/timer.h"
#include "common/types.h"
#include "device/device.h"
#include "device/transfer_model.h"

namespace fastsc::device {

struct DeviceGroupConfig {
  usize num_devices = 1;
  /// Worker threads per device pool.  The default keeps every device's
  /// kernel numerics serial-deterministic; the host machine's parallelism
  /// is spent across devices, not within one.
  usize workers_per_device = 1;
  TransferModel model{};
  /// Per-device memory budget in bytes; 0 = unlimited.
  usize memory_limit_bytes = 0;

  /// Deterministic kernel cost model, installed on every device context
  /// (DeviceContext::set_kernel_cost_model) when > 0: kernels are charged
  /// launch latency + bytes touched / rate, so modeled speedup curves are a
  /// pure function of the partition, not of host wall-clock noise.  0 keeps
  /// measured kernel wall time.
  double modeled_compute_bytes_per_sec = 0;
  double modeled_launch_latency_seconds = 5.0e-6;
};

class DeviceGroup {
 public:
  explicit DeviceGroup(const DeviceGroupConfig& config = {});

  /// A group of one that borrows the caller's context as device 0: no new
  /// contexts or pools, and the context keeps its workers, transfer model,
  /// trace tracks and counters.  This is how a one-device run executes the
  /// pipeline's group stages.  `root` must outlive the group.
  explicit DeviceGroup(DeviceContext& root);

  DeviceGroup(const DeviceGroup&) = delete;
  DeviceGroup& operator=(const DeviceGroup&) = delete;

  [[nodiscard]] usize size() const noexcept { return contexts_.size(); }
  [[nodiscard]] DeviceContext& device(usize i) {
    FASTSC_CHECK(i < contexts_.size(), "device index out of range");
    return *contexts_[i];
  }
  [[nodiscard]] const DeviceContext& device(usize i) const {
    FASTSC_CHECK(i < contexts_.size(), "device index out of range");
    return *contexts_[i];
  }
  /// Device 0: owns full-size staging (seeding, normalization) and is the
  /// fold target of every allreduce.
  [[nodiscard]] DeviceContext& root() { return device(0); }

  [[nodiscard]] const DeviceGroupConfig& config() const noexcept {
    return config_;
  }

  /// cudaMemcpyPeer: copy `count` elements from device `src` memory into
  /// device `dst` memory.  Metered on the destination's link engine with
  /// the D2D model; `site` is both the fault-injection site and the
  /// attribution fallback.  The fault check precedes the memcpy, so the
  /// bounded retry replays an injected transient fault idempotently.
  template <class T>
  void copy_peer(usize src, usize dst, const T* src_data, T* dst_data,
                 usize count, const char* site) {
    FASTSC_CHECK(src < size() && dst < size(), "peer device out of range");
    FASTSC_CHECK(src != dst, "peer copy requires distinct devices");
    DeviceContext& to = device(dst);
    const usize bytes = count * sizeof(T);
    run_transfer_with_retry(to, site, [&] {
      if (fault::triggered(site)) {
        throw DeviceTransferError(site, bytes, CopyDir::kD2d);
      }
      WallTimer t;
      if (count != 0) std::memcpy(dst_data, src_data, bytes);
      to.record_d2d(bytes, t.seconds(), site);
      note_peer_traffic(bytes);
    });
  }

  /// Meter a peer transfer without moving data — the cost accounting for
  /// reductions whose arithmetic this simulation folds on the host but
  /// whose traffic a real multi-GPU allreduce would put on the wire.
  /// Charged to the destination's link engine like copy_peer.
  void model_peer_transfer(usize src, usize dst, usize bytes,
                           const char* site);

  /// Sum of every device's counters — the group's conservation-law rollup.
  [[nodiscard]] DeviceCounters rollup_counters() const;

  /// Sum of every device's attribution totals.
  [[nodiscard]] obs::SiteStats rollup_attribution() const;

  /// Group position on the deterministic transfer timeline (sum over
  /// devices) — the virtual-now source for budget limits on sharded runs.
  [[nodiscard]] double modeled_transfer_seconds_now() const;

  /// Slowest device's modeled pipeline time — the quantity a speedup curve
  /// divides, since the group finishes when its last device does.
  [[nodiscard]] double max_modeled_pipeline_seconds() const;

 private:
  /// d2d.* observability: metrics counters plus trace counter samples (the
  /// scaling_smoke monotonicity check reads these).
  void note_peer_traffic(usize bytes);

  DeviceGroupConfig config_;
  std::vector<std::unique_ptr<DeviceContext>> owned_;
  std::vector<DeviceContext*> contexts_;
};

/// Difference of two counter snapshots — per-run accounting at every device
/// count.  Traffic and engine-time fields are subtracted; the memory gauges
/// (live/peak bytes, total allocations) keep the `after` snapshot's absolute
/// values.
[[nodiscard]] DeviceCounters counters_delta(const DeviceCounters& after,
                                            const DeviceCounters& before);

}  // namespace fastsc::device
