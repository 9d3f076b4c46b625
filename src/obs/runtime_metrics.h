// Glue between the runtime's existing accounting structs and the metrics
// registry: DeviceCounters and the compute ThreadPool both publish into
// named gauges so one --metrics-out snapshot carries the whole runtime
// state.  Kept out of src/common and src/device so those layers stay free
// of an obs dependency — obs depends on them, never the other way (devices
// *emit* trace events through the narrow obs/trace.h interface only).
#pragma once

#include <string>

#include "device/device.h"
#include "obs/metrics.h"

namespace fastsc::obs {

/// Publish a DeviceCounters snapshot as gauges under `prefix` (default
/// "device."): bytes/transfer counts, measured/modeled transfer seconds,
/// kernel time, the modeled pipeline time, and memory accounting.
void publish_device_counters(const device::DeviceCounters& c,
                             MetricsRegistry& registry,
                             const std::string& prefix = "device.");

/// Publish thread-pool dispatch stats under `prefix`.
void publish_thread_pool(const ThreadPool& pool, MetricsRegistry& registry,
                         const std::string& prefix = "thread_pool.");

/// Everything a DeviceContext owns: the counter rollup of the context and
/// its peers (DeviceContext::devices()) + the worker pool they share.
/// (Non-const: the pool accessor is non-const; nothing is mutated.)
void publish_device_context(device::DeviceContext& ctx,
                            MetricsRegistry& registry);

}  // namespace fastsc::obs
