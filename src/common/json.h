// Minimal JSON value model and recursive-descent parser.
//
// The observability layer emits JSON (metrics snapshots, Chrome trace
// events) that other parts of the system read back: the `xmlreval stats`
// subcommand pretty-prints a dumped snapshot, tools/smoke/obs.sh reconciles
// histogram counts against request counters, and the trace golden test
// schema-checks the exported events. This is the shared reader — a small,
// strict subset of RFC 8259 (no surrogate-pair decoding beyond pass-through,
// numbers as double) sufficient for everything xmlreval itself writes.

#ifndef XMLREVAL_COMMON_JSON_H_
#define XMLREVAL_COMMON_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace xmlreval::json {

class Value;
using Array = std::vector<Value>;
/// std::map keeps object keys ordered, which makes test output stable.
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}                 // NOLINT
  Value(double n) : kind_(Kind::kNumber), number_(n) {}           // NOLINT
  Value(std::string s)                                            // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}
  Value(Array a)                                                  // NOLINT
      : kind_(Kind::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  Value(Object o)                                                 // NOLINT
      : kind_(Kind::kObject),
        object_(std::make_shared<Object>(std::move(o))) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; calling the wrong one on a value is a programming
  /// error (checked), not a parse error.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;

  /// Object member by key, or nullptr when absent / not an object.
  const Value* Find(std::string_view key) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  // shared_ptr keeps Value copyable without recursive-by-value members.
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses one JSON document; trailing non-whitespace is an error.
Result<Value> Parse(std::string_view text);

/// Escapes `s` for embedding inside a JSON string literal (no quotes).
std::string Escape(std::string_view s);

}  // namespace xmlreval::json

#endif  // XMLREVAL_COMMON_JSON_H_
