#ifndef ODBGC_UTIL_PARSE_FLAG_H_
#define ODBGC_UTIL_PARSE_FLAG_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace odbgc {

/// Matches a `--name=value` command-line argument: true, with `*value`
/// set to the text after '=', when `arg` is `name` followed by '='.
inline bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

/// Parses the whole of `text` as a decimal T, an integer or floating
/// type, into `*out`. False, leaving `*out` alone, when any character is
/// left over (spaces included), when the value overflows T, when it is
/// not finite, or when it carries a sign T cannot take ('+' never; '-'
/// only on a signed or floating type).
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (text.empty() || error != std::errc() || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed)) return false;
  }
  *out = parsed;
  return true;
}

/// Matches a numeric `--name=value` flag (see ParseFlag) and parses its
/// value into `*out` (see ParseNumber). False for any other argument. A
/// value that does not parse is reported on stderr, naming the flag, and
/// clears `*ok`.
template <typename T>
bool ParseNumberFlag(const char* arg, const char* name, T* out, bool* ok) {
  std::string value;
  if (!ParseFlag(arg, name, &value)) return false;
  if (!ParseNumber(value, out)) {
    std::fprintf(stderr, "invalid value \"%s\" for %s\n", value.c_str(), name);
    *ok = false;
  }
  return true;
}

}  // namespace odbgc

#endif  // ODBGC_UTIL_PARSE_FLAG_H_
