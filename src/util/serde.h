#ifndef ODBGC_UTIL_SERDE_H_
#define ODBGC_UTIL_SERDE_H_

#include <cstdint>
#include <istream>
#include <ostream>

#include "util/status.h"

namespace odbgc {

/// Little-endian primitives of the binary trace format (trace/). All
/// readers fail with Corruption on truncation — never with a partial
/// value.

inline void PutVarint(std::ostream& out, uint64_t v) {
  while (v >= 0x80) {
    out.put(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.put(static_cast<char>(v));
}

inline Result<uint64_t> GetVarint(std::istream& in) {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const int c = in.get();
    if (c == EOF) return Status::Corruption("truncated inside varint");
    v |= static_cast<uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) break;
    shift += 7;
    if (shift >= 64) return Status::Corruption("varint too long");
  }
  return v;
}

inline void PutU8(std::ostream& out, uint8_t v) {
  out.put(static_cast<char>(v));
}

inline Result<uint8_t> GetU8(std::istream& in) {
  const int c = in.get();
  if (c == EOF) return Status::Corruption("truncated reading byte");
  return static_cast<uint8_t>(c);
}

inline void PutU16(std::ostream& out, uint16_t v) {
  out.put(static_cast<char>(v & 0xff));
  out.put(static_cast<char>((v >> 8) & 0xff));
}

inline Result<uint16_t> GetU16(std::istream& in) {
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    const int c = in.get();
    if (c == EOF) return Status::Corruption("truncated reading u16");
    v = static_cast<uint16_t>(v | (static_cast<uint16_t>(c) << (8 * i)));
  }
  return v;
}

inline void PutU32(std::ostream& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline Result<uint32_t> GetU32(std::istream& in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    const int c = in.get();
    if (c == EOF) return Status::Corruption("truncated reading u32");
    v |= static_cast<uint32_t>(c) << (8 * i);
  }
  return v;
}

}  // namespace odbgc

#endif  // ODBGC_UTIL_SERDE_H_
