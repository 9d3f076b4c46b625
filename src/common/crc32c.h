// CRC32C (Castagnoli, polynomial 0x1EDC6F41) for integrity-at-rest framing.
//
// Used by the SDC defense layer to seal byte payloads whose corruption the
// numeric ABFT checks cannot see: serialized LanczosCheckpoint blobs,
// ResultCache entries, and staged host<->device transfer buffers (every
// eigensolver wave CRCs its staged x twice).  Portable table-driven
// slice-by-8 software implementation; no hardware CRC intrinsics.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace fastsc {

/// CRC32C of `len` bytes.  `seed` chains incremental updates:
/// crc32c(b, n) == crc32c(b + k, n - k, crc32c(b, k)).
[[nodiscard]] std::uint32_t crc32c(const void* data, usize len,
                                   std::uint32_t seed = 0);

}  // namespace fastsc
