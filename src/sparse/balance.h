// nnz-balanced work partitioning for CSR SpMV (merge-path decomposition).
//
// device::launch splits a row-parallel kernel into one contiguous chunk of
// rows per worker — owner-computes by *row count*.  On power-law graphs a
// few hub-heavy chunks serialize the whole wave.  The fix (Merrill &
// Garland, "Merge-based parallel sparse matrix-vector multiplication") is
// to walk the merge of two sorted lists — the row-end offsets
// row_ptr[1..rows] and the entry indices 0..nnz-1 — and split that merged
// path into equal pieces with a diagonal binary search.  Every span then
// carries (rows consumed + entries consumed) ~= (rows + nnz) / spans of
// work regardless of how skewed the degree distribution is.  The consumers
// (device_csrmv, make_row_partition) hand each row cut by a span boundary
// whole to one side, which adds at most one row's entries to a span.
#pragma once

#include <vector>

#include "common/types.h"

namespace fastsc::sparse {

/// Equal-work partition of the merge path of a CSR row range.  Span s
/// covers merge-path diagonals [s*M/spans, (s+1)*M/spans) where
/// M = (row_end - row_begin) + nnz(range); its 2-D coordinates are
/// (span_row[s], span_ent[s]) .. (span_row[s+1], span_ent[s+1]): it
/// processes entries [span_ent[s], span_ent[s+1]) and finishes rows
/// [span_row[s], span_row[s+1]).  Rows cut by a span boundary are shared
/// between two spans in the merge path itself.
struct MergePathPartition {
  index_t row_begin = 0;
  index_t row_end = 0;
  index_t spans = 0;
  std::vector<index_t> span_row;  ///< size spans + 1, ascending
  std::vector<index_t> span_ent;  ///< size spans + 1, ascending (absolute)

  /// Worst / mean entries per span of the merge path itself (boundary rows
  /// split).  device_csrmv publishes the mean as spmv.wave_mean_nnz; its
  /// spmv.wave_max_nnz counts whole rows instead.
  index_t max_span_nnz = 0;
  real mean_span_nnz = 0;

  [[nodiscard]] index_t nnz() const noexcept {
    return span_ent.empty() ? 0 : span_ent.back() - span_ent.front();
  }
};

/// Build the merge-path partition of rows [row_begin, row_end) of a CSR
/// with the given row_ptr (length >= row_end + 1).  `spans` is clamped to
/// at least 1.  Pure host computation, O(spans * log(rows + nnz)).
[[nodiscard]] MergePathPartition merge_path_partition(const index_t* row_ptr,
                                                      index_t row_begin,
                                                      index_t row_end,
                                                      index_t spans);

/// Worst-case entries handled by one worker under the owner-computes
/// row-count split device::launch uses today (chunk = ceil(rows/workers))
/// — the row-chunked baseline the balance metrics are compared against.
[[nodiscard]] index_t rowchunk_max_span_nnz(const index_t* row_ptr,
                                            index_t row_begin, index_t row_end,
                                            index_t workers);

}  // namespace fastsc::sparse
