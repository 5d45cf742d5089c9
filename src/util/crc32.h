#ifndef ODBGC_UTIL_CRC32_H_
#define ODBGC_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace odbgc {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected). Used to frame
/// WAL records, to seal checkpoint files and file-device page frames so
/// that torn writes and bit rot are detected as Corruption instead of
/// being replayed, and to digest run results. `seed` chains: the CRC of
/// a + b is Crc32(b, Crc32(a)).
///
/// Inputs of 64 bytes or more are folded with carry-less multiplies on
/// x86-64 CPUs with PCLMULQDQ (chosen once, from cpuid); shorter inputs,
/// the last few bytes and other CPUs take a slicing-by-16 table loop.
/// Both give the same value.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

}  // namespace odbgc

#endif  // ODBGC_UTIL_CRC32_H_
