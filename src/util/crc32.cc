#include "util/crc32.h"

#include <array>

namespace odbgc {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 16>;

// Slicing-by-16 tables: kTables[0] is the classic byte-at-a-time table,
// and kTables[k][b] is the CRC of byte b followed by k zero bytes, so one
// lookup per byte folds a whole 16-byte block into the register at once.
constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

// Little-endian 32-bit load by byte assembly: no alignment or aliasing
// assumptions, and compilers fold it into one load on little-endian hosts.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  // Byte j of a 16-byte block is followed by 15 - j more bytes of it, so
  // it goes through kTables[15 - j]; the running register folds into the
  // block's first four bytes.
  for (; size >= 16; bytes += 16, size -= 16) {
    const uint32_t head = LoadLe32(bytes) ^ crc;
    crc = kTables[15][head & 0xff] ^ kTables[14][(head >> 8) & 0xff] ^
          kTables[13][(head >> 16) & 0xff] ^ kTables[12][head >> 24] ^
          kTables[11][bytes[4]] ^ kTables[10][bytes[5]] ^
          kTables[9][bytes[6]] ^ kTables[8][bytes[7]] ^
          kTables[7][bytes[8]] ^ kTables[6][bytes[9]] ^
          kTables[5][bytes[10]] ^ kTables[4][bytes[11]] ^
          kTables[3][bytes[12]] ^ kTables[2][bytes[13]] ^
          kTables[1][bytes[14]] ^ kTables[0][bytes[15]];
  }
  for (; size > 0; ++bytes, --size) {
    crc = kTables[0][(crc ^ *bytes) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace odbgc
