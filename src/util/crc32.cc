#include "util/crc32.h"

#include <array>

#include "util/crc32_internal.h"

// The folding kernel needs PCLMULQDQ and SSE4.1. It is compiled for them
// function by function (the target attribute), so the build needs no
// architecture flag, and it runs only where the CPU reports both.
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define ODBGC_CRC32_FOLDING 1
#endif

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

// Advances the CRC register `crc` (the running value before the final
// inversion) over `size` bytes with the slicing tables.
uint32_t TableUpdate(uint32_t crc, const unsigned char* bytes, size_t size) {
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
  return crc;
}

#if ODBGC_CRC32_FOLDING

// Folding by carry-less multiplication, after Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction" (Intel,
// 2009). Everything lives in the bit-reflected domain of the CRC-32
// polynomial P = x^32 + ... + 1 (0x104C11DB7; reflected, 0xEDB88320).
// kXn is reflect32(x^n mod P) << 1: multiplying a 64-bit half of an
// accumulator by it carries that half n bits further down the message.
constexpr long long kX544 = 0x154442bd4;  // 4 * 128 + 32: across 64 bytes
constexpr long long kX480 = 0x1c6e41596;  // 4 * 128 - 32
constexpr long long kX160 = 0x1751997d0;  // 128 + 32: across 16 bytes
constexpr long long kX96 = 0x0ccaa009e;   // 128 - 32
constexpr long long kX64 = 0x163cd6124;
// Barrett reduction from 64 to 32 bits: P reflected to 33 bits, and
// mu = reflect33(floor(x^64 / P)).
constexpr long long kP = 0x1db710641;
constexpr long long kMu = 0x1f7011641;

#define ODBGC_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

ODBGC_FOLD_TARGET inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carries the 128 bits of `acc` forward by the distance `k` encodes (low
// half times k's low constant, high half times its high one) and adds the
// block `next` that sits there.
ODBGC_FOLD_TARGET inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

// Advances the CRC register `crc` over `size` bytes, a multiple of 16 and
// at least 64.
ODBGC_FOLD_TARGET uint32_t FoldBlocks(uint32_t crc, const unsigned char* p,
                                      size_t size) {
  // Four independent accumulators keep four multiplies in flight; the
  // running register enters as the xor of the message's first four bytes.
  __m128i a0 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i a1 = Load(p + 16);
  __m128i a2 = Load(p + 32);
  __m128i a3 = Load(p + 48);
  p += 64;
  size -= 64;
  const __m128i k64_bytes = _mm_set_epi64x(kX480, kX544);
  for (; size >= 64; p += 64, size -= 64) {
    a0 = Fold(a0, k64_bytes, Load(p));
    a1 = Fold(a1, k64_bytes, Load(p + 16));
    a2 = Fold(a2, k64_bytes, Load(p + 32));
    a3 = Fold(a3, k64_bytes, Load(p + 48));
  }
  // Fold the four into one, then take the remaining 16-byte blocks.
  const __m128i k16_bytes = _mm_set_epi64x(kX96, kX160);
  __m128i acc = Fold(a0, k16_bytes, a1);
  acc = Fold(acc, k16_bytes, a2);
  acc = Fold(acc, k16_bytes, a3);
  for (; size >= 16; p += 16, size -= 16) {
    acc = Fold(acc, k16_bytes, Load(p));
  }
  // 128 to 96 bits: the low half times x^96 onto the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, k16_bytes, 0x10));
  // 96 to 64 bits: the low 32 bits times x^64 onto the rest.
  acc = _mm_xor_si128(
      _mm_srli_si128(acc, 4),
      _mm_clmulepi64_si128(_mm_and_si128(acc, low32),
                           _mm_set_epi64x(0, kX64), 0x00));
  // Barrett: q = floor(acc / P) from mu, then acc - q * P leaves the
  // remainder in bits 32..63.
  const __m128i barrett = _mm_set_epi64x(kMu, kP);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(acc, q), 1));
}

#undef ODBGC_FOLD_TARGET

#endif  // ODBGC_CRC32_FOLDING

}  // namespace

namespace crc32_internal {

uint32_t TableCrc32(const void* data, size_t size, uint32_t seed) {
  return ~TableUpdate(~seed, static_cast<const unsigned char*>(data), size);
}

#if ODBGC_CRC32_FOLDING

uint32_t FoldingCrc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  if (size >= 64) {
    const size_t blocks = size & ~size_t{15};
    crc = FoldBlocks(crc, bytes, blocks);
    bytes += blocks;
    size -= blocks;
  }
  return ~TableUpdate(crc, bytes, size);
}

bool FoldingAvailable() {
  static const bool available = [] {
    // The first checksum may be taken from a static initializer, before
    // the runtime has read cpuid on its own.
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return available;
}

#else

// No folding kernel on this architecture: FoldingAvailable() is false and
// this is the table loop.
uint32_t FoldingCrc32(const void* data, size_t size, uint32_t seed) {
  return TableCrc32(data, size, seed);
}

bool FoldingAvailable() { return false; }

#endif  // ODBGC_CRC32_FOLDING

}  // namespace crc32_internal

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  return crc32_internal::FoldingAvailable()
             ? crc32_internal::FoldingCrc32(data, size, seed)
             : crc32_internal::TableCrc32(data, size, seed);
}

}  // namespace odbgc
