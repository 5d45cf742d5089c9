#ifndef ODBGC_OBSERVE_JSON_H_
#define ODBGC_OBSERVE_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace odbgc {

/// A minimal JSON document model with one defining property: **canonical
/// emission**. Dump() of equal documents is byte-identical — object keys
/// sort lexicographically (std::map), layout is fixed (2-space indent,
/// LF), and numbers print in shortest-round-trip form — so run manifests
/// can be compared with string equality and diffed across reruns.
///
/// Numbers: integers without sign print as unsigned decimals; doubles use
/// the shortest "%.Ng" string that strtod()s back to the same bits. An
/// integral double (2.0) therefore prints as "2" and re-parses as an
/// integer — a type flip that is invisible to Dump(), keeping
/// emit -> parse -> re-emit byte-stable.
class Json {
 public:
  enum class Kind : uint8_t {
    kNull,
    kBool,
    kUInt,
    kInt,  ///< Negative integers only; non-negative parse as kUInt.
    kDouble,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : kind_(Kind::kNull) {}

  static Json Null() { return Json(); }
  static Json Bool(bool value);
  static Json UInt(uint64_t value);
  static Json Int(int64_t value);
  static Json Double(double value);
  static Json Str(std::string value);
  static Json Arr();
  static Json Obj();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const {
    return kind_ == Kind::kUInt || kind_ == Kind::kInt ||
           kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  /// Numeric accessors convert between the three numeric kinds.
  uint64_t uint_value() const;
  int64_t int_value() const;
  double double_value() const;
  const std::string& string_value() const { return string_; }
  const Array& array() const { return array_; }
  Array& array() { return array_; }
  const Object& object() const { return object_; }
  Object& object() { return object_; }

  /// Object helpers. Set replaces; Get returns nullptr when absent (or
  /// when this is not an object).
  void Set(const std::string& key, Json value);
  const Json* Get(const std::string& key) const;
  /// Array helper.
  void Push(Json value);

  /// Canonical serialization (see class comment). Ends with a newline.
  std::string Dump() const;

  /// Strict parser for the subset Dump() emits plus ordinary JSON
  /// freedoms (any whitespace, any key order, escapes). Rejects trailing
  /// garbage, duplicate keys, and non-finite numbers.
  static Result<Json> Parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b);
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

 private:
  void DumpTo(std::string* out, int indent) const;

  Kind kind_;
  bool bool_ = false;
  uint64_t uint_ = 0;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Formats a finite double in shortest-round-trip form ("0.1", "2", not
/// "2.0"). Exposed for tests.
std::string CanonicalDoubleString(double value);

}  // namespace odbgc

#endif  // ODBGC_OBSERVE_JSON_H_
