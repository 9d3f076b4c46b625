#include "data/io.h"

#include "sparse/convert.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

namespace fastsc::data {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fastsc_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  sparse::Coo coo(3, 3);
  coo.push(0, 1, 1.5);
  coo.push(1, 0, 1.5);
  coo.push(1, 2, 2.0);
  coo.push(2, 1, 2.0);
  write_edge_list(path("g.txt"), coo);
  const sparse::Coo back = read_edge_list(path("g.txt"), /*symmetrize=*/false);
  EXPECT_EQ(back.nnz(), 4);
  EXPECT_EQ(back.rows, 3);
}

TEST_F(IoTest, ReadEdgeListSymmetrizes) {
  std::ofstream(path("e.txt")) << "0 1\n1 2\n";
  const sparse::Coo coo = read_edge_list(path("e.txt"), true);
  EXPECT_EQ(coo.nnz(), 4);
}

TEST_F(IoTest, ReadEdgeListSkipsCommentsAndSelfLoops) {
  std::ofstream(path("e.txt")) << "# comment\n0 0\n0 1\n\n# more\n";
  const sparse::Coo coo = read_edge_list(path("e.txt"), false);
  EXPECT_EQ(coo.nnz(), 1);
}

TEST_F(IoTest, ReadEdgeListCompactsSparseIds) {
  std::ofstream(path("e.txt")) << "100 900\n900 5000\n";
  const sparse::Coo coo = read_edge_list(path("e.txt"), false);
  EXPECT_EQ(coo.rows, 3);  // ids compacted to 0..2
}

TEST_F(IoTest, ReadEdgeListParsesWeights) {
  std::ofstream(path("e.txt")) << "0 1 2.5\n1 2\n";
  const sparse::Coo coo = read_edge_list(path("e.txt"), false);
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_DOUBLE_EQ(coo.values[0], 2.5);
  EXPECT_DOUBLE_EQ(coo.values[1], 1.0);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW((void)read_edge_list(path("nope.txt")), std::invalid_argument);
  EXPECT_THROW((void)read_labels(path("nope.txt")), std::invalid_argument);
  index_t r, c;
  EXPECT_THROW((void)read_points(path("nope.txt"), r, c),
               std::invalid_argument);
}

TEST_F(IoTest, LabelsRoundTrip) {
  const std::vector<index_t> labels{0, 2, 1, 2, 0};
  write_labels(path("l.txt"), labels);
  EXPECT_EQ(read_labels(path("l.txt")), labels);
}

TEST_F(IoTest, PointsRoundTrip) {
  const std::vector<real> pts{1.5, -2, 3, 0.25, 5, 6};
  write_points(path("p.txt"), pts.data(), 2, 3);
  index_t rows, cols;
  const auto back = read_points(path("p.txt"), rows, cols);
  EXPECT_EQ(rows, 2);
  EXPECT_EQ(cols, 3);
  ASSERT_EQ(back.size(), 6u);
  for (usize i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(back[i], pts[i]);
}

TEST_F(IoTest, RaggedPointsThrow) {
  std::ofstream(path("p.txt")) << "1 2 3\n4 5\n";
  index_t r, c;
  EXPECT_THROW((void)read_points(path("p.txt"), r, c), std::invalid_argument);
}

TEST_F(IoTest, PointsSkipComments) {
  std::ofstream(path("p.txt")) << "# header\n1 2\n3 4\n";
  index_t r, c;
  const auto pts = read_points(path("p.txt"), r, c);
  EXPECT_EQ(r, 2);
  EXPECT_EQ(c, 2);
  EXPECT_DOUBLE_EQ(pts[3], 4.0);
}

TEST_F(IoTest, MatrixMarketRoundTrip) {
  sparse::Coo coo(3, 4);
  coo.push(0, 1, 1.5);
  coo.push(2, 3, -2.25);
  coo.push(1, 0, 7.0);
  write_matrix_market(path("m.mtx"), coo);
  const sparse::Coo back = read_matrix_market(path("m.mtx"));
  EXPECT_EQ(back.rows, 3);
  EXPECT_EQ(back.cols, 4);
  ASSERT_EQ(back.nnz(), 3);
  EXPECT_DOUBLE_EQ(back.values[0], 1.5);
  EXPECT_DOUBLE_EQ(back.values[1], -2.25);
  EXPECT_DOUBLE_EQ(back.values[2], 7.0);
  EXPECT_EQ(back.row_idx, coo.row_idx);
  EXPECT_EQ(back.col_idx, coo.col_idx);
}

TEST_F(IoTest, MatrixMarketSymmetricMirrors) {
  std::ofstream(path("s.mtx"))
      << "%%MatrixMarket matrix coordinate real symmetric\n"
      << "3 3 2\n"
      << "2 1 5.0\n"
      << "3 3 1.0\n";
  const sparse::Coo coo = read_matrix_market(path("s.mtx"));
  ASSERT_EQ(coo.nnz(), 3);  // off-diagonal mirrored, diagonal not
  sparse::Csr csr = sparse::coo_to_csr(coo);
  EXPECT_DOUBLE_EQ(csr.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(csr.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(csr.at(2, 2), 1.0);
}

TEST_F(IoTest, MatrixMarketPatternDefaultsToOne) {
  std::ofstream(path("p.mtx"))
      << "%%MatrixMarket matrix coordinate pattern general\n"
      << "% comment line\n"
      << "2 2 1\n"
      << "1 2\n";
  const sparse::Coo coo = read_matrix_market(path("p.mtx"));
  ASSERT_EQ(coo.nnz(), 1);
  EXPECT_DOUBLE_EQ(coo.values[0], 1.0);
  EXPECT_EQ(coo.row_idx[0], 0);
  EXPECT_EQ(coo.col_idx[0], 1);
}

TEST_F(IoTest, MatrixMarketRejectsBadInput) {
  std::ofstream(path("bad1.mtx")) << "not a banner\n1 1 0\n";
  EXPECT_THROW((void)read_matrix_market(path("bad1.mtx")),
               std::invalid_argument);
  std::ofstream(path("bad2.mtx"))
      << "%%MatrixMarket matrix array real general\n1 1\n1.0\n";
  EXPECT_THROW((void)read_matrix_market(path("bad2.mtx")),
               std::invalid_argument);
  std::ofstream(path("bad3.mtx"))
      << "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
  EXPECT_THROW((void)read_matrix_market(path("bad3.mtx")),
               std::invalid_argument);  // truncated
  std::ofstream(path("bad4.mtx"))
      << "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
  EXPECT_THROW((void)read_matrix_market(path("bad4.mtx")),
               std::invalid_argument);  // out of range
}

TEST_F(IoTest, GarbageInputsThrowOrDegradeGracefully) {
  // Binary junk in an edge list: corrupted lines throw a line-numbered
  // std::invalid_argument — never a crash, never a silent mis-parse.
  std::ofstream(path("junk.txt"), std::ios::binary)
      << "\x01\x02\xff garbage\n12 bananas\n3 4\n";
  EXPECT_THROW((void)read_edge_list(path("junk.txt"), false),
               std::invalid_argument);

  // Junk in a MatrixMarket body throws cleanly.
  std::ofstream(path("junk.mtx"))
      << "%%MatrixMarket matrix coordinate real general\n"
      << "2 2 1\nhello world\n";
  EXPECT_THROW((void)read_matrix_market(path("junk.mtx")),
               std::invalid_argument);

  // Junk in a points file throws too.
  std::ofstream(path("junk.pts")) << "abc def\n1 2\n";
  index_t r, c;
  EXPECT_THROW((void)read_points(path("junk.pts"), r, c),
               std::invalid_argument);
}

// Every loader error names the file and 1-based line of the offending input.
TEST_F(IoTest, ParseErrorsCarryLineNumbers) {
  auto expect_line = [](auto&& fn, const std::string& file,
                        const std::string& lineno) {
    try {
      fn();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(file + ":" + lineno + ":"), std::string::npos)
          << "missing '" << file << ":" << lineno << ":' in: " << what;
    }
  };

  std::ofstream(path("e.txt")) << "# ok\n0 1\n2 oops\n";
  expect_line([&] { (void)read_edge_list(path("e.txt")); }, path("e.txt"),
              "3");

  std::ofstream(path("neg.txt")) << "0 1\n-3 4\n";
  expect_line([&] { (void)read_edge_list(path("neg.txt")); }, path("neg.txt"),
              "2");

  std::ofstream(path("w.txt")) << "0 1 not_a_weight\n";
  expect_line([&] { (void)read_edge_list(path("w.txt")); }, path("w.txt"),
              "1");

  std::ofstream(path("p.txt")) << "1 2\n3 x\n";
  expect_line(
      [&] {
        index_t r, c;
        (void)read_points(path("p.txt"), r, c);
      },
      path("p.txt"), "2");

  std::ofstream(path("rag.txt")) << "1 2 3\n\n4 5\n";
  expect_line(
      [&] {
        index_t r, c;
        (void)read_points(path("rag.txt"), r, c);
      },
      path("rag.txt"), "3");

  std::ofstream(path("l.txt")) << "0\n1\ntwo\n";
  expect_line([&] { (void)read_labels(path("l.txt")); }, path("l.txt"), "3");

  std::ofstream(path("m.mtx"))
      << "%%MatrixMarket matrix coordinate real general\n"
      << "% comment\n"
      << "2 2 2\n"
      << "1 1 1.0\n"
      << "9 1 1.0\n";
  expect_line([&] { (void)read_matrix_market(path("m.mtx")); }, path("m.mtx"),
              "5");
}

TEST_F(IoTest, EdgeListRejectsNonFiniteAndTrailingGarbage) {
  // "nan"/"inf" tokens do not parse as numbers in narrow streams; either way
  // the loader must reject the line rather than store a poisoned weight.
  std::ofstream(path("nan.txt")) << "0 1 nan\n";
  EXPECT_THROW((void)read_edge_list(path("nan.txt")), std::invalid_argument);
  std::ofstream(path("ovf.txt")) << "0 1 1e99999\n";
  EXPECT_THROW((void)read_edge_list(path("ovf.txt")), std::invalid_argument);
  std::ofstream(path("trail.txt")) << "0 1 2.5 surprise\n";
  EXPECT_THROW((void)read_edge_list(path("trail.txt")),
               std::invalid_argument);
}

TEST_F(IoTest, MatrixMarketRejectsHostileHeaders) {
  // A header claiming far more entries than the file could hold must be
  // rejected up front instead of driving a giant reserve().
  std::ofstream(path("big.mtx"))
      << "%%MatrixMarket matrix coordinate real general\n"
      << "10 10 900000000000\n"
      << "1 1 1.0\n";
  EXPECT_THROW((void)read_matrix_market(path("big.mtx")),
               std::invalid_argument);

  std::ofstream(path("negdim.mtx"))
      << "%%MatrixMarket matrix coordinate real general\n"
      << "-2 2 1\n"
      << "1 1 1.0\n";
  EXPECT_THROW((void)read_matrix_market(path("negdim.mtx")),
               std::invalid_argument);
}

// Property test: flipping any single byte of a valid file must leave the
// loader in one of two states — clean success or std::invalid_argument.
// Crashes, hangs, and foreign exception types are all failures.
TEST_F(IoTest, CorruptedByteFuzzNeverCrashes) {
  const std::string edge_file = path("fuzz_e.txt");
  const std::string pts_file = path("fuzz_p.txt");
  const std::string mtx_file = path("fuzz_m.mtx");
  std::ofstream(edge_file) << "# graph\n0 1 2.5\n1 2\n2 3 0.25\n10 11\n";
  std::ofstream(pts_file) << "1.5 -2.0\n0.25 3\n4 5\n";
  std::ofstream(mtx_file) << "%%MatrixMarket matrix coordinate real general\n"
                          << "3 3 3\n1 1 1.0\n2 3 -2.5\n3 2 4\n";

  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  auto run_fuzz = [&](const std::string& orig_path, auto&& load) {
    const std::string orig = slurp(orig_path);
    const std::string mutated_path = orig_path + ".mut";
    std::mt19937 rng(12345);  // deterministic corruption pattern
    for (usize pos = 0; pos < orig.size(); ++pos) {
      std::string mutated = orig;
      mutated[pos] = static_cast<char>(rng());
      std::ofstream(mutated_path, std::ios::binary) << mutated;
      try {
        load(mutated_path);  // success is fine (benign flip)
      } catch (const std::invalid_argument&) {
        // rejected cleanly — fine
      } catch (const std::exception& e) {
        FAIL() << "byte " << pos << " raised non-invalid_argument: "
               << e.what();
      }
    }
  };

  run_fuzz(edge_file,
           [](const std::string& p) { (void)read_edge_list(p); });
  run_fuzz(pts_file, [](const std::string& p) {
    index_t r, c;
    (void)read_points(p, r, c);
  });
  run_fuzz(mtx_file,
           [](const std::string& p) { (void)read_matrix_market(p); });
}

TEST_F(IoTest, EmptyFilesAreHandled) {
  std::ofstream(path("empty.txt")).close();
  const sparse::Coo coo = read_edge_list(path("empty.txt"), true);
  EXPECT_EQ(coo.rows, 0);
  EXPECT_EQ(coo.nnz(), 0);
  index_t r, c;
  const auto pts = read_points(path("empty.txt"), r, c);
  EXPECT_EQ(r, 0);
  EXPECT_TRUE(pts.empty());
  EXPECT_TRUE(read_labels(path("empty.txt")).empty());
  EXPECT_THROW((void)read_matrix_market(path("empty.txt")),
               std::invalid_argument);
}

// The writers print 17 significant digits, so every value reads back
// bit-for-bit, signed zeros and values far from 1 included.
TEST_F(IoTest, NarrowStorageRoundTripFuzz) {
  std::mt19937_64 gen(20260808);
  std::uniform_real_distribution<double> mant(-1.0, 1.0);
  std::uniform_int_distribution<int> expo(-30, 30);
  std::vector<real> pts(64 * 3);
  for (real& v : pts) v = std::ldexp(mant(gen), expo(gen));
  pts[0] = 0.0;
  pts[1] = -0.0;
  pts[2] = 1.0 / 3.0;

  write_points(path("pq.txt"), pts.data(), 64, 3);
  index_t rows, cols;
  const auto back = read_points(path("pq.txt"), rows, cols);
  ASSERT_EQ(rows, 64);
  ASSERT_EQ(cols, 3);
  for (usize i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back[i], &pts[i], sizeof(real)), 0)
        << "i=" << i << " v=" << pts[i];
  }

  sparse::Coo coo(8, 8);
  std::uniform_int_distribution<index_t> idx(0, 7);
  for (int e = 0; e < 40; ++e) {
    coo.push(idx(gen), idx(gen), std::ldexp(mant(gen), expo(gen)));
  }
  write_matrix_market(path("mq.mtx"), coo);
  const sparse::Coo mm = read_matrix_market(path("mq.mtx"));
  ASSERT_EQ(mm.nnz(), coo.nnz());
  for (usize i = 0; i < coo.values.size(); ++i) {
    EXPECT_EQ(mm.values[i], coo.values[i]) << "entry " << i;
  }

  // read_edge_list drops self loops and keeps the remaining lines in order.
  write_edge_list(path("eq.txt"), coo);
  const sparse::Coo el = read_edge_list(path("eq.txt"), false);
  std::vector<real> want;
  for (usize i = 0; i < coo.values.size(); ++i) {
    if (coo.row_idx[i] != coo.col_idx[i]) want.push_back(coo.values[i]);
  }
  EXPECT_EQ(el.values, want);
}

}  // namespace
}  // namespace fastsc::data
