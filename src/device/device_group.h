// DeviceGroup: N simulated devices with a modeled peer-to-peer link.
//
// The paper runs on a single K20c; its natural scale-out is the multi-GPU
// design of Sgherzi et al. (arXiv:2201.07498): 1-D row-partitioned
// operators, halo/allgather exchange of the dense vector, and allreduce for
// the small reductions.  This module supplies the runtime half of that
// design:
//
//   * device 0 is the caller's DeviceContext and device i >= 1 is that
//     context's peer i (DeviceContext::peer): a full context with its own
//     arena accounting, counters, attribution registry and virtual
//     timeline, trace tracks (2i+1, 2i+2) inside obs::kVirtualPid, and the
//     root's configuration and worker pool.  Peers outlive the group, so
//     every group on one context reuses them and each device's books stay
//     where its work ran;
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
#include <vector>

#include "common/error.h"
#include "common/timer.h"
#include "common/types.h"
#include "device/device.h"

namespace fastsc::device {

class DeviceGroup {
 public:
  /// `root` as device 0 and its peers 1..num_devices-1 (created on first
  /// use, then reused).  A group of one touches no peer state.  `root`
  /// must outlive the group.
  explicit DeviceGroup(DeviceContext& root, usize num_devices = 1);

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
  /// Device 0, the caller's context: runs Algorithm 1, owns full-size
  /// staging (seeding, normalization) and is the fold target of every
  /// allreduce.
  [[nodiscard]] DeviceContext& root() { return device(0); }

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

  /// Slowest device's modeled pipeline time — the quantity a speedup curve
  /// divides, since the group finishes when its last device does.
  [[nodiscard]] double max_modeled_pipeline_seconds() const;

 private:
  /// d2d.* observability: metrics counters plus trace counter samples (the
  /// scaling_smoke monotonicity check reads these).
  void note_peer_traffic(usize bytes);

  std::vector<DeviceContext*> contexts_;
};

/// Difference of two counter snapshots — per-run accounting at every device
/// count.  Traffic and engine-time fields are subtracted; the memory gauges
/// (live/peak bytes, total allocations) keep the `after` snapshot's absolute
/// values.
[[nodiscard]] DeviceCounters counters_delta(const DeviceCounters& after,
                                            const DeviceCounters& before);

}  // namespace fastsc::device
