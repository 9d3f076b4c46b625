#include "data/io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/error.h"

namespace fastsc::data {

namespace {

/// Line-numbered parse failure: "file.txt:17: message — line: '...'".
/// Corrupted inputs must fail loudly and point at the offending byte range,
/// never crash or silently mis-parse.
[[noreturn]] void throw_parse_error(const std::string& path, usize lineno,
                                    const std::string& message,
                                    const std::string& line) {
  std::ostringstream os;
  os << path << ':' << lineno << ": " << message;
  if (!line.empty()) {
    // Clip the echoed line so a corrupted multi-megabyte row stays readable.
    constexpr usize kMaxEcho = 80;
    os << " — line: '"
       << (line.size() <= kMaxEcho ? line : line.substr(0, kMaxEcho) + "…")
       << "'";
  }
  throw std::invalid_argument(os.str());
}

/// Significant digits for a bit-exact text round-trip of a binary64 value
/// (its max_digits10); the stream's default of 6 would truncate.
constexpr int kRoundTripDigits = 17;

/// True when only whitespace remains on the stream.
bool rest_is_blank(std::istream& is) {
  is >> std::ws;
  return is.eof();
}

bool is_comment_or_blank(const std::string& line, char comment_char) {
  for (char ch : line) {
    if (ch == comment_char) return true;
    if (!std::isspace(static_cast<unsigned char>(ch))) return false;
  }
  return true;  // blank
}

}  // namespace

sparse::Coo read_edge_list(const std::string& path, bool symmetrize) {
  std::ifstream in(path);
  FASTSC_CHECK(in.good(), "cannot open edge list file: " + path);
  std::unordered_map<index_t, index_t> compact;
  std::vector<index_t> us, vs;
  std::vector<real> ws;
  std::string line;
  usize lineno = 0;
  auto id_of = [&](index_t raw) {
    const auto it =
        compact.try_emplace(raw, static_cast<index_t>(compact.size())).first;
    return it->second;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (is_comment_or_blank(line, '#')) continue;
    std::istringstream ls(line);
    index_t u, v;
    if (!(ls >> u)) {
      throw_parse_error(path, lineno, "expected integer source vertex", line);
    }
    if (!(ls >> v)) {
      throw_parse_error(path, lineno,
                        "truncated edge: missing destination vertex", line);
    }
    if (u < 0 || v < 0) {
      throw_parse_error(path, lineno, "negative vertex id", line);
    }
    real w = 1.0;
    if (!rest_is_blank(ls)) {
      ls.clear();
      if (!(ls >> w)) {
        throw_parse_error(path, lineno, "unparseable edge weight", line);
      }
      if (!std::isfinite(w)) {
        throw_parse_error(path, lineno, "non-finite edge weight", line);
      }
      if (!rest_is_blank(ls)) {
        throw_parse_error(path, lineno, "trailing garbage after edge weight",
                          line);
      }
    }
    if (u == v) continue;
    us.push_back(id_of(u));
    vs.push_back(id_of(v));
    ws.push_back(w);
  }
  const auto n = static_cast<index_t>(compact.size());
  sparse::Coo coo(n, n);
  coo.reserve(static_cast<index_t>(us.size()) * (symmetrize ? 2 : 1));
  for (usize e = 0; e < us.size(); ++e) {
    coo.push(us[e], vs[e], ws[e]);
    if (symmetrize) coo.push(vs[e], us[e], ws[e]);
  }
  return coo;
}

void write_edge_list(const std::string& path, const sparse::Coo& coo) {
  std::ofstream out(path);
  FASTSC_CHECK(out.good(), "cannot open file for writing: " + path);
  out << "# fastsc edge list: " << coo.rows << " nodes, " << coo.nnz()
      << " entries\n";
  out.precision(kRoundTripDigits);
  for (usize e = 0; e < coo.values.size(); ++e) {
    out << coo.row_idx[e] << ' ' << coo.col_idx[e] << ' ' << coo.values[e]
        << '\n';
  }
}

void write_labels(const std::string& path,
                  const std::vector<index_t>& labels) {
  std::ofstream out(path);
  FASTSC_CHECK(out.good(), "cannot open file for writing: " + path);
  for (index_t l : labels) out << l << '\n';
}

std::vector<index_t> read_labels(const std::string& path) {
  std::ifstream in(path);
  FASTSC_CHECK(in.good(), "cannot open labels file: " + path);
  std::vector<index_t> labels;
  std::string line;
  usize lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (is_comment_or_blank(line, '#')) continue;
    std::istringstream ls(line);
    index_t l;
    if (!(ls >> l) || !rest_is_blank(ls)) {
      throw_parse_error(path, lineno, "expected one integer label", line);
    }
    labels.push_back(l);
  }
  return labels;
}

std::vector<real> read_points(const std::string& path, index_t& rows,
                              index_t& cols) {
  std::ifstream in(path);
  FASTSC_CHECK(in.good(), "cannot open points file: " + path);
  std::vector<real> data;
  rows = 0;
  cols = -1;
  std::string line;
  usize lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (is_comment_or_blank(line, '#')) continue;
    std::istringstream ls(line);
    index_t count = 0;
    real v;
    while (ls >> v) {
      if (!std::isfinite(v)) {
        throw_parse_error(path, lineno, "non-finite coordinate", line);
      }
      data.push_back(v);
      ++count;
    }
    if (!ls.eof()) {
      throw_parse_error(path, lineno, "unparseable coordinate", line);
    }
    if (count == 0) continue;
    if (cols < 0) {
      cols = count;
    } else if (count != cols) {
      throw_parse_error(path, lineno,
                        "ragged row: expected " + std::to_string(cols) +
                            " columns, got " + std::to_string(count),
                        line);
    }
    ++rows;
  }
  if (cols < 0) cols = 0;
  return data;
}

void write_points(const std::string& path, const real* data, index_t rows,
                  index_t cols) {
  std::ofstream out(path);
  FASTSC_CHECK(out.good(), "cannot open file for writing: " + path);
  out.precision(kRoundTripDigits);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (c != 0) out << ' ';
      out << data[r * cols + c];
    }
    out << '\n';
  }
}

sparse::Coo read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  FASTSC_CHECK(in.good(), "cannot open MatrixMarket file: " + path);
  std::string line;
  usize lineno = 0;
  FASTSC_CHECK(static_cast<bool>(std::getline(in, line)),
               "empty MatrixMarket file: " + path);
  ++lineno;
  std::istringstream banner(line);
  std::string mm, object, format, field, symmetry;
  banner >> mm >> object >> format >> field >> symmetry;
  if (mm != "%%MatrixMarket") {
    throw_parse_error(path, lineno, "missing MatrixMarket banner", line);
  }
  if (object != "matrix" || format != "coordinate") {
    throw_parse_error(path, lineno, "only coordinate matrices are supported",
                      line);
  }
  if (field != "real" && field != "integer" && field != "pattern") {
    throw_parse_error(path, lineno,
                      "unsupported MatrixMarket field type: " + field, line);
  }
  if (symmetry != "general" && symmetry != "symmetric") {
    throw_parse_error(path, lineno,
                      "unsupported MatrixMarket symmetry: " + symmetry, line);
  }
  const bool pattern = field == "pattern";
  const bool symmetric = symmetry == "symmetric";

  // Skip comments, read the size line.
  index_t rows = 0, cols = 0, nnz = 0;
  bool have_size = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (is_comment_or_blank(line, '%')) continue;
    std::istringstream ls(line);
    if (!(ls >> rows >> cols >> nnz) || !rest_is_blank(ls)) {
      throw_parse_error(path, lineno, "malformed MatrixMarket size line",
                        line);
    }
    have_size = true;
    break;
  }
  FASTSC_CHECK(have_size, "missing MatrixMarket size line: " + path);
  if (rows < 0 || cols < 0 || nnz < 0) {
    throw_parse_error(path, lineno, "negative MatrixMarket dimensions", line);
  }
  sparse::Coo coo(rows, cols);
  // An oversized header count (corrupted or hostile) must not drive a huge
  // up-front allocation: every entry needs at least "r c\n" = 4 bytes, so
  // nnz can never exceed the remaining file size.  Truncation past the real
  // entry count is still caught by the `seen == nnz` check below.
  {
    const auto body_start = in.tellg();
    in.seekg(0, std::ios::end);
    const auto body_bytes =
        static_cast<long long>(in.tellg()) - static_cast<long long>(body_start);
    in.seekg(body_start);
    if (static_cast<long long>(nnz) > body_bytes / 4 + 1) {
      throw_parse_error(
          path, lineno,
          "oversized entry count " + std::to_string(nnz) + " for a " +
              std::to_string(body_bytes) + "-byte body",
          line);
    }
  }
  coo.reserve(symmetric ? 2 * nnz : nnz);
  index_t seen = 0;
  while (seen < nnz && std::getline(in, line)) {
    ++lineno;
    if (is_comment_or_blank(line, '%')) continue;
    std::istringstream ls(line);
    index_t r, c;
    real v = 1.0;
    if (!(ls >> r >> c)) {
      throw_parse_error(path, lineno, "malformed MatrixMarket entry", line);
    }
    if (!pattern) {
      if (!(ls >> v)) {
        throw_parse_error(path, lineno, "missing value in MatrixMarket entry",
                          line);
      }
      if (!std::isfinite(v)) {
        throw_parse_error(path, lineno, "non-finite MatrixMarket value", line);
      }
    }
    if (r < 1 || r > rows || c < 1 || c > cols) {
      throw_parse_error(path, lineno, "MatrixMarket index out of range", line);
    }
    coo.push(r - 1, c - 1, v);
    if (symmetric && r != c) coo.push(c - 1, r - 1, v);
    ++seen;
  }
  FASTSC_CHECK(seen == nnz, "MatrixMarket file truncated: " + path);
  return coo;
}

void write_matrix_market(const std::string& path, const sparse::Coo& coo) {
  std::ofstream out(path);
  FASTSC_CHECK(out.good(), "cannot open file for writing: " + path);
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by fastsc\n";
  out << coo.rows << ' ' << coo.cols << ' ' << coo.nnz() << '\n';
  out.precision(kRoundTripDigits);
  for (usize e = 0; e < coo.values.size(); ++e) {
    out << coo.row_idx[e] + 1 << ' ' << coo.col_idx[e] + 1 << ' '
        << coo.values[e] << '\n';
  }
}

}  // namespace fastsc::data
