#ifndef ODBGC_UTIL_PARSE_FLAG_H_
#define ODBGC_UTIL_PARSE_FLAG_H_

#include <cstring>
#include <string>

namespace odbgc {

/// Matches a `--name=value` command-line argument: true, with `*value`
/// set to the text after '=', when `arg` is `name` followed by '='.
inline bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace odbgc

#endif  // ODBGC_UTIL_PARSE_FLAG_H_
