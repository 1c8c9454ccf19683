// Minimal ordered JSON document model for the observability layer.
//
// Every machine-readable artifact the repo emits (RunReports, chrome://tracing
// traces) serializes through this one writer, so escaping and number
// formatting are testable in a single place. The model is deliberately tiny:
// a tagged value (null / bool / integer / double / string / array / object)
// whose objects preserve insertion order — reports read the way the code
// built them, and serialization is deterministic for a fixed document.
//
// Integers are kept distinct from doubles so counters print as exact
// integers ("42", never "42.0"), which the bench-gate tooling and schema
// docs rely on.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nocmap::obs {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray,
                    kObject };

  JsonValue() = default;  // null
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(std::int64_t v) : type_(Type::kInt), int_(v) {}
  JsonValue(std::uint64_t v) : type_(Type::kUint), uint_(v) {}
  JsonValue(int v) : type_(Type::kInt), int_(v) {}
  JsonValue(double v) : type_(Type::kDouble), double_(v) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}

  static JsonValue array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }

  /// Typed accessors; each throws nocmap::Error when the value is not of
  /// (or not convertible to) the requested type. as_double accepts any
  /// number; as_uint accepts integer-typed values that are not negative.
  bool as_bool() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Parses one complete JSON document (RFC 8259 subset: no comments, no
  /// trailing commas; \uXXXX escapes including surrogate pairs are decoded
  /// to UTF-8). Numbers lex as kInt when they are integral and fit in
  /// int64 (kUint when only uint64 fits), kDouble otherwise. Throws
  /// nocmap::Error with the byte offset on malformed input — this is the
  /// reader for campaign specs and sweep logs (tools/nocmap_sweep), so
  /// errors must name where the document broke.
  static JsonValue parse(const std::string& text);

  /// Object access: returns the member named `key`, inserting a null member
  /// (and converting a null value into an object) on first use. Insertion
  /// order is preserved in the dump.
  JsonValue& operator[](const std::string& key);

  /// Member lookup without insertion; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Array append (converts a null value into an array on first use).
  void push_back(JsonValue v);

  /// Nested access through a dotted path ("a.b.c"), creating intermediate
  /// objects as needed. Used by RunReport::set.
  JsonValue& at_path(const std::string& dotted_path);

  std::size_t size() const;

  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Serializes the document. `indent` > 0 pretty-prints with that many
  /// spaces per level; 0 emits the compact single-line form.
  std::string dump(int indent = 2) const;

  /// JSON string escaping per RFC 8259: quote, backslash, the two-character
  /// escapes for \b \f \n \r \t, and \u00XX for the remaining control
  /// characters. Everything else (including UTF-8 bytes) passes through.
  static std::string escape(const std::string& s);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members_;  // kObject
};

}  // namespace nocmap::obs
