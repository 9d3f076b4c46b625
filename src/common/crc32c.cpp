#include "common/crc32c.h"

#include <array>

namespace fastsc {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slice-by-8 tables for the reflected Castagnoli polynomial: tables[0] is
// the classic byte table, tables[k][i] is the CRC of byte i followed by k
// zero bytes.  Built once at first use; 8 KiB.
Tables make_tables() {
  Tables t{};
  constexpr std::uint32_t kPolyReflected = 0x82F63B78u;  // 0x1EDC6F41 reversed
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (usize k = 1; k < 8; ++k) {
    for (usize i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

}  // namespace

std::uint32_t crc32c(const void* data, usize len, std::uint32_t seed) {
  static const Tables t = make_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  // Eight bytes per step.  The bytes are combined explicitly (no word
  // loads), so the result does not depend on the host's endianness.
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo =
        crc ^ (static_cast<std::uint32_t>(p[0]) |
               static_cast<std::uint32_t>(p[1]) << 8 |
               static_cast<std::uint32_t>(p[2]) << 16 |
               static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace fastsc
