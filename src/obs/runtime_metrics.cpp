#include "obs/runtime_metrics.h"

namespace fastsc::obs {

void publish_device_counters(const device::DeviceCounters& c,
                             MetricsRegistry& registry,
                             const std::string& prefix) {
  const auto set = [&](const char* name, double v) {
    registry.set_gauge(prefix + name, v);
  };
  set("bytes_h2d", static_cast<double>(c.bytes_h2d));
  set("bytes_d2h", static_cast<double>(c.bytes_d2h));
  set("bytes_d2d", static_cast<double>(c.bytes_d2d));
  set("transfers_h2d", static_cast<double>(c.transfers_h2d));
  set("transfers_d2h", static_cast<double>(c.transfers_d2h));
  set("transfers_d2d", static_cast<double>(c.transfers_d2d));
  set("measured_transfer_seconds", c.measured_transfer_seconds);
  set("modeled_transfer_seconds", c.modeled_transfer_seconds);
  set("modeled_d2d_seconds", c.modeled_d2d_seconds);
  set("kernel_seconds", c.kernel_seconds);
  set("kernel_launches", static_cast<double>(c.kernel_launches));
  set("modeled_pipeline_seconds", c.modeled_pipeline_seconds());
  set("transfer_retries", static_cast<double>(c.transfer_retries));
  set("live_bytes", static_cast<double>(c.live_bytes));
  set("peak_bytes", static_cast<double>(c.peak_bytes));
  set("total_allocations", static_cast<double>(c.total_allocations));
}

void publish_thread_pool(const ThreadPool& pool, MetricsRegistry& registry,
                         const std::string& prefix) {
  registry.set_gauge(prefix + "workers",
                     static_cast<double>(pool.worker_count()));
  registry.set_gauge(prefix + "jobs_dispatched",
                     static_cast<double>(pool.jobs_dispatched()));
}

void publish_device_context(device::DeviceContext& ctx,
                            MetricsRegistry& registry) {
  device::DeviceCounters total;
  for (const device::DeviceContext* d : ctx.devices()) {
    device::accumulate_counters(total, d->counters_snapshot());
  }
  publish_device_counters(total, registry);
  publish_thread_pool(ctx.pool(), registry);
}

}  // namespace fastsc::obs
