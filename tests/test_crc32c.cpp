// CRC32C: the slice-by-8 implementation must reproduce the byte-at-a-time
// definition bit for bit at every length and alignment, so checkpoint and
// cache frames sealed by either stay readable.
#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace fastsc {
namespace {

/// Byte-at-a-time reference: the reflected Castagnoli polynomial applied
/// one bit at a time.
std::uint32_t reference_crc32c(const unsigned char* p, usize len,
                               std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (usize i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(usize n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) {
    b = static_cast<unsigned char>(rng.uniform_index(256));
  }
  return out;
}

TEST(Crc32c, KnownAnswer) {
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = random_bytes(160000 + 8, 3);
  for (usize off = 0; off < 8; ++off) {
    const unsigned char* p = bytes.data() + off;
    for (usize len = 0; len <= 64; ++len) {
      ASSERT_EQ(crc32c(p, len), reference_crc32c(p, len))
          << "offset " << off << " length " << len;
    }
    ASSERT_EQ(crc32c(p, 160000), reference_crc32c(p, 160000))
        << "offset " << off;
  }
}

TEST(Crc32c, SeedChainsIncrementalUpdates) {
  const std::vector<unsigned char> bytes = random_bytes(1000, 5);
  const std::uint32_t whole = crc32c(bytes.data(), bytes.size());
  for (const usize k : {usize{0}, usize{1}, usize{7}, usize{8}, usize{333}}) {
    EXPECT_EQ(crc32c(bytes.data() + k, bytes.size() - k,
                     crc32c(bytes.data(), k)),
              whole)
        << "split at " << k;
    EXPECT_EQ(crc32c(bytes.data() + k, bytes.size() - k, 0x1234u),
              reference_crc32c(bytes.data() + k, bytes.size() - k, 0x1234u));
  }
}

}  // namespace
}  // namespace fastsc
