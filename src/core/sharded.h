// Multi-device spectral clustering: the pipeline of core/spectral.h driven
// over a DeviceGroup with the 1-D row-sharded operator of sparse/shard.h.
//
// Stage mapping (the multi-GPU design of Sgherzi et al., arXiv:2201.07498):
//
//   * normalization (Algorithm 2) runs distributed: every device normalizes
//     its own CSR row block (graph::sym_normalized_sharded);
//   * every reverse-communication SpMV is a sharded wave: own-segment
//     upload, peer halo exchange on the modeled D2D link, interior rows
//     overlapping the exchange, frontier rows behind the scatter;
//   * the CGS2 reorthogonalization is metered as per-device partial GEMVs
//     over the local rows plus a coefficient allreduce ("d2d.allreduce");
//     the arithmetic itself stays in the host solver, bitwise identical to
//     the single-device run;
//   * k-means is the same stage the single-device pipeline runs
//     (detail::kmeans_stage over kmeans::kmeans_group), here over the
//     eigensolver's row cuts: the points stay sharded in place, centroids
//     broadcast root -> peers each sweep ("d2d.centroid_bcast"), and the
//     fixed 256-point block partials fold on the root in ascending global
//     order ("d2d.centroid_reduce") — the fixed fold order that makes
//     labels byte-identical across device counts (DESIGN.md §12).
//
// Entered through SpectralConfig::num_devices > 1 (core/spectral.cpp); the
// direct entry point here lets tests and benches own the DeviceGroup.
#pragma once

#include "core/spectral.h"
#include "device/device_group.h"

namespace fastsc::core {

/// Cluster the graph `w` across all devices of `group` (Steps 2-4).  The
/// result is byte-identical in labels for any group size, and identical to
/// a single-device group run; counters/attribution land on the group's
/// per-device contexts with SpectralResult::device_counters holding the
/// group rollup delta.
[[nodiscard]] SpectralResult spectral_cluster_graph_sharded(
    const sparse::Coo& w, const SpectralConfig& config,
    device::DeviceGroup& group);

}  // namespace fastsc::core
