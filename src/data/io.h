// Text IO for graphs, point sets and label vectors.
//
// Formats are deliberately SNAP-compatible so the real FB/DBLP edge lists
// can be dropped into the benches: one "u v [w]" line per edge, '#' comments
// ignored.  Points are one row per line, whitespace-separated.
#pragma once

#include <string>

#include "common/types.h"
#include "graph/grid_index.h"
#include "sparse/coo.h"

namespace fastsc::data {

/// Read an edge list ("u v" or "u v w" per line, '#' comments).  Node ids
/// are compacted to [0, n); `symmetrize` mirrors every edge.  Self loops are
/// dropped.  Missing weights default to 1.0.
[[nodiscard]] sparse::Coo read_edge_list(const std::string& path,
                                         bool symmetrize = true);

// Every writer prints values with 17 significant digits, so they round-trip
// bit-for-bit through the matching reader (the stream's default of 6 digits
// would truncate).

/// Write a COO matrix as "u v w" lines.
void write_edge_list(const std::string& path, const sparse::Coo& coo);

/// Write one label per line.
void write_labels(const std::string& path, const std::vector<index_t>& labels);

/// Read one label per line.
[[nodiscard]] std::vector<index_t> read_labels(const std::string& path);

/// Read a dense row-major matrix (whitespace-separated, one row per line).
/// Returns data and sets rows/cols.
[[nodiscard]] std::vector<real> read_points(const std::string& path,
                                            index_t& rows, index_t& cols);

/// Write a dense row-major matrix.
void write_points(const std::string& path, const real* data, index_t rows,
                  index_t cols);

/// Read a Matrix Market file (coordinate format; real/integer/pattern
/// fields; general or symmetric storage — symmetric entries are mirrored).
/// 1-based indices per the spec.
[[nodiscard]] sparse::Coo read_matrix_market(const std::string& path);

/// Write a COO matrix in Matrix Market coordinate/real/general format.
void write_matrix_market(const std::string& path, const sparse::Coo& coo);

}  // namespace fastsc::data
