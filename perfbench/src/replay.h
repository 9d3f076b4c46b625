// Traced replay: the device pipeline re-run through each layer's public
// function, with a span around every call.
//
//   graph.similarity   graph::build_similarity_device       (points mode)
//   device.upload      DeviceCoo upload of the input graph    (graph mode)
//   graph.normalize    graph::sym_normalized_device (Algorithm 2)
//   lanczos.solve      the SymLanczos reverse-communication loop, holding
//     lanczos.step       SymLanczos::step (host RCI: CGS2, restarts)
//     lanczos.matvec     one product, holding
//       device.stage       the x upload and y download
//       sparse.spmv        sparse::device_csrmv_balanced
//   lanczos.ritz       SymLanczos::extract_eigenvectors
//   kmeans             kmeans::kmeans_device
//
// The replay skips what no public layer call covers (SDC checks, the async
// column-block pipeline, input validation); the untraced solve time minus the
// replayed layer seconds reports that share as core.overhead_s.
#pragma once

#include <cstdint>
#include <vector>

#include "core/spectral.h"
#include "device/device.h"
#include "graph/grid_index.h"
#include "spans.h"
#include "sparse/coo.h"

namespace perfbench {

using fastsc::index_t;

struct ReplayResult {
  std::vector<index_t> labels;
  bool eig_converged = false;
  index_t matvecs = 0;
  /// Bytes one SpMV reads and writes, computed from the CSR array sizes.
  double spmv_bytes = 0;
};

[[nodiscard]] ReplayResult replay_points(fastsc::device::DeviceContext& ctx,
                                         const fastsc::real* x, index_t n,
                                         index_t d,
                                         const fastsc::graph::EdgeList& edges,
                                         const fastsc::core::SpectralConfig& cfg,
                                         SpanRecorder& rec, std::uint64_t op);

[[nodiscard]] ReplayResult replay_graph(fastsc::device::DeviceContext& ctx,
                                        const fastsc::sparse::Coo& w,
                                        const fastsc::core::SpectralConfig& cfg,
                                        SpanRecorder& rec, std::uint64_t op);

}  // namespace perfbench
