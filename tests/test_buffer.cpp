#include "common/buffer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <utility>

namespace fastsc {
namespace {

TEST(AlignedBuffer, DefaultConstructedIsEmpty) {
  AlignedBuffer<double> buf;
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
}

TEST(AlignedBuffer, ZeroInitializesByDefault) {
  AlignedBuffer<double> buf(128);
  for (usize i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0);
}

TEST(AlignedBuffer, AlignmentIs64Bytes) {
  for (usize n : {1u, 3u, 17u, 1000u}) {
    AlignedBuffer<double> buf(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kBufferAlignment,
              0u);
  }
}

TEST(AlignedBuffer, SizeBytesMatches) {
  AlignedBuffer<double> buf(10);
  EXPECT_EQ(buf.size_bytes(), 80u);
}

TEST(AlignedBuffer, CopyIsDeep) {
  AlignedBuffer<int> a(4);
  std::iota(a.begin(), a.end(), 1);
  AlignedBuffer<int> b(a);
  ASSERT_EQ(b.size(), 4u);
  b[0] = 99;
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(b[1], 2);
}

TEST(AlignedBuffer, CopyAssignReplacesContents) {
  AlignedBuffer<int> a(2);
  a[0] = 7;
  AlignedBuffer<int> b(5);
  b = a;
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], 7);
}

TEST(AlignedBuffer, SelfAssignmentIsSafe) {
  AlignedBuffer<int> a(3);
  a[2] = 5;
  AlignedBuffer<int>& alias = a;
  a = alias;
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a[2], 5);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(3);
  a[1] = 42;
  const int* p = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[1], 42);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
}

TEST(AlignedBuffer, MoveAssignReleasesOld) {
  AlignedBuffer<int> a(3);
  a[0] = 1;
  AlignedBuffer<int> b(100);
  b = std::move(a);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0], 1);
}

TEST(AlignedBuffer, FillSetsEveryElement) {
  AlignedBuffer<double> buf(33, AlignedBuffer<double>::uninitialized);
  buf.fill(2.5);
  for (double v : buf) EXPECT_EQ(v, 2.5);
}

TEST(AlignedBuffer, SpanCoversWholeBuffer) {
  AlignedBuffer<double> buf(5);
  auto s = buf.span();
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.data(), buf.data());
}

TEST(AlignedBuffer, ZeroSizedAllocationsWork) {
  AlignedBuffer<double> buf(0);
  EXPECT_TRUE(buf.empty());
  AlignedBuffer<double> copy(buf);
  EXPECT_TRUE(copy.empty());
}

// Buffers of 128 KiB and up are anonymous mappings (16384 doubles is the
// threshold); both sides of it must zero, align, copy and move alike.
TEST(AlignedBuffer, LargeAllocationsBehaveLikeSmallOnes) {
  for (const usize n : {usize{16383}, usize{16384}, usize{100001}}) {
    AlignedBuffer<double> buf(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kBufferAlignment,
              0u);
    for (usize i = 0; i < n; ++i) ASSERT_EQ(buf[i], 0.0) << "n=" << n;
    std::iota(buf.begin(), buf.end(), 1.0);
    AlignedBuffer<double> copy(buf);
    EXPECT_NE(copy.data(), buf.data());
    EXPECT_EQ(copy[n - 1], static_cast<double>(n));
    AlignedBuffer<double> moved(std::move(copy));
    EXPECT_EQ(moved[0], 1.0);
    moved = AlignedBuffer<double>(3);  // releases the large mapping
    EXPECT_EQ(moved.size(), 3u);
  }
}

}  // namespace
}  // namespace fastsc
