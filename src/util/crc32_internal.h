#ifndef ODBGC_UTIL_CRC32_INTERNAL_H_
#define ODBGC_UTIL_CRC32_INTERNAL_H_

// The two CRC-32 kernels behind Crc32, named so that tests can hold each
// against a reference and benches can report which one ran. Callers that
// only want a checksum use Crc32 (util/crc32.h).

#include <cstddef>
#include <cstdint>

namespace odbgc::crc32_internal {

/// Slicing-by-16 table loop: the portable kernel.
uint32_t TableCrc32(const void* data, size_t size, uint32_t seed);

/// Carry-less-multiply folding over the input's whole 16-byte blocks when
/// it is at least 64 bytes long, then the table loop for the rest. Call
/// only when FoldingAvailable() is true.
uint32_t FoldingCrc32(const void* data, size_t size, uint32_t seed);

/// True when this build has the folding kernel (x86-64) and the CPU
/// reports PCLMULQDQ and SSE4.1. Decided once, on first call; Crc32 uses
/// FoldingCrc32 exactly when this is true.
bool FoldingAvailable();

}  // namespace odbgc::crc32_internal

#endif  // ODBGC_UTIL_CRC32_INTERNAL_H_
