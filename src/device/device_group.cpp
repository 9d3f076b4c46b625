#include "device/device_group.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fastsc::device {

DeviceGroup::DeviceGroup(DeviceContext& root, usize num_devices)
    : contexts_{&root} {
  FASTSC_CHECK(num_devices >= 1, "a device group needs at least one device");
  for (usize i = 1; i < num_devices; ++i) contexts_.push_back(&root.peer(i));
}

void DeviceGroup::model_peer_transfer(usize src, usize dst, usize bytes,
                                      const char* site) {
  FASTSC_CHECK(src < size() && dst < size(), "peer device out of range");
  FASTSC_CHECK(src != dst, "peer transfer requires distinct devices");
  DeviceContext& to = device(dst);
  run_transfer_with_retry(to, site, [&] {
    if (fault::triggered(site)) {
      throw DeviceTransferError(site, bytes, CopyDir::kD2d);
    }
    to.record_d2d(bytes, 0.0, site);
    note_peer_traffic(bytes);
  });
}

void DeviceGroup::note_peer_traffic(usize bytes) {
  obs::bump("d2d.transfers");
  obs::bump("d2d.bytes", static_cast<std::int64_t>(bytes));
}

DeviceCounters counters_delta(const DeviceCounters& after,
                              const DeviceCounters& before) {
  DeviceCounters d = after;
  d.bytes_h2d -= before.bytes_h2d;
  d.bytes_d2h -= before.bytes_d2h;
  d.bytes_d2d -= before.bytes_d2d;
  d.transfers_h2d -= before.transfers_h2d;
  d.transfers_d2h -= before.transfers_d2h;
  d.transfers_d2d -= before.transfers_d2d;
  d.measured_transfer_seconds -= before.measured_transfer_seconds;
  d.modeled_transfer_seconds -= before.modeled_transfer_seconds;
  d.modeled_d2d_seconds -= before.modeled_d2d_seconds;
  d.kernel_seconds -= before.kernel_seconds;
  d.kernel_launches -= before.kernel_launches;
  d.transfer_retries -= before.transfer_retries;
  return d;
}

DeviceCounters DeviceGroup::rollup_counters() const {
  DeviceCounters total;
  for (const auto& ctx : contexts_) {
    accumulate_counters(total, ctx->counters_snapshot());
  }
  return total;
}

obs::SiteStats DeviceGroup::rollup_attribution() const {
  obs::SiteStats total;
  for (const auto& ctx : contexts_) total += ctx->attribution().totals();
  return total;
}

double DeviceGroup::max_modeled_pipeline_seconds() const {
  double worst = 0;
  for (const auto& ctx : contexts_) {
    worst = std::max(worst,
                     ctx->counters_snapshot().modeled_pipeline_seconds());
  }
  return worst;
}

}  // namespace fastsc::device
