#include "obs/json.h"

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/error.h"

namespace nocmap::obs {

JsonValue& JsonValue::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  NOCMAP_REQUIRE(type_ == Type::kObject, "json [] on a non-object value");
  for (auto& [name, value] : members_) {
    if (name == key) return value;
  }
  members_.emplace_back(key, JsonValue{});
  return members_.back().second;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

void JsonValue::push_back(JsonValue v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  NOCMAP_REQUIRE(type_ == Type::kArray, "json push_back on a non-array value");
  items_.push_back(std::move(v));
}

JsonValue& JsonValue::at_path(const std::string& dotted_path) {
  JsonValue* node = this;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = dotted_path.find('.', start);
    if (dot == std::string::npos) {
      return (*node)[dotted_path.substr(start)];
    }
    node = &(*node)[dotted_path.substr(start, dot - start)];
    start = dot + 1;
  }
}

std::size_t JsonValue::size() const {
  if (type_ == Type::kArray) return items_.size();
  if (type_ == Type::kObject) return members_.size();
  return 0;
}

std::string JsonValue::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

namespace {

void append_double(std::string& out, double v) {
  // Non-finite values are not representable in JSON; emit null (the reader
  // treats it as "not measured").
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  // %.17g round-trips every double; trim to the shortest form that still
  // reads naturally by preferring %g's default when it round-trips.
  std::snprintf(buf, sizeof buf, "%g", v);
  double back = 0.0;
  std::sscanf(buf, "%lf", &back);
  if (back != v) std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)),
                               ' ')
                 : std::string();
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                 : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";

  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%" PRId64, int_);
      out += buf;
      break;
    }
    case Type::kUint: {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%" PRIu64, uint_);
      out += buf;
      break;
    }
    case Type::kDouble: append_double(out, double_); break;
    case Type::kString:
      out += '"';
      out += escape(string_);
      out += '"';
      break;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out += pad;
        items_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < items_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += pad;
        out += '"';
        out += escape(members_[i].first);
        out += '"';
        out += colon;
        members_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < members_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

bool JsonValue::as_bool() const {
  NOCMAP_REQUIRE(type_ == Type::kBool, "json value is not a bool");
  return bool_;
}

std::uint64_t JsonValue::as_uint() const {
  if (type_ == Type::kUint) return uint_;
  if (type_ == Type::kInt) {
    NOCMAP_REQUIRE(int_ >= 0, "json integer is negative");
    return static_cast<std::uint64_t>(int_);
  }
  NOCMAP_REQUIRE(false, "json value is not an integer");
  return 0;
}

double JsonValue::as_double() const {
  switch (type_) {
    case Type::kDouble: return double_;
    case Type::kInt: return static_cast<double>(int_);
    case Type::kUint: return static_cast<double>(uint_);
    default: break;
  }
  NOCMAP_REQUIRE(false, "json value is not a number");
  return 0.0;
}

const std::string& JsonValue::as_string() const {
  NOCMAP_REQUIRE(type_ == Type::kString, "json value is not a string");
  return string_;
}

namespace {

/// Recursive-descent JSON reader over a string view of the input. Errors
/// carry the byte offset so a broken multi-megabyte campaign log still
/// points at the damage.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    require(pos_ == text_.size(), "trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }
  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    require(pos_ < text_.size() && text_[pos_] == c,
            "unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value(int depth) {
    require(depth < kMaxDepth, "nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue(parse_string());
      case 't':
        require(consume_literal("true"), "bad literal");
        return JsonValue(true);
      case 'f':
        require(consume_literal("false"), "bad literal");
        return JsonValue(false);
      case 'n':
        require(consume_literal("null"), "bad literal");
        return JsonValue();
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      require(peek() == '"', "expected object key");
      const std::string key = parse_string();
      require(obj.find(key) == nullptr, "duplicate object key");
      skip_ws();
      expect(':');
      obj[key] = parse_value(depth + 1);
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      require(c == ',', "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      require(c == ',', "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      require(pos_ < text_.size(), "unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (ch == '\\') {
        require(pos_ < text_.size(), "unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': append_codepoint(out); break;
          default: fail("unknown escape");
        }
      } else {
        require(static_cast<unsigned char>(ch) >= 0x20,
                "raw control character in string");
        out += ch;
      }
    }
  }

  std::uint32_t parse_hex4() {
    require(pos_ + 4 <= text_.size(), "truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return v;
  }

  void append_codepoint(std::string& out) {
    std::uint32_t cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
      require(pos_ + 2 <= text_.size() && text_[pos_] == '\\' &&
                  text_[pos_ + 1] == 'u',
              "unpaired surrogate");
      pos_ += 2;
      const std::uint32_t lo = parse_hex4();
      require(lo >= 0xDC00 && lo <= 0xDFFF, "unpaired surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else {
      require(!(cp >= 0xDC00 && cp <= 0xDFFF), "unpaired surrogate");
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    require(pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9',
            "expected number");
    const std::size_t int_start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    // RFC 8259: no leading zeros ("01" is two tokens, i.e. malformed).
    require(text_[int_start] != '0' || pos_ - int_start == 1,
            "leading zeros are not allowed");
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      require(pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9',
              "digit required after decimal point");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      require(pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9',
              "digit required in exponent");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (integral) {
      errno = 0;
      char* end = nullptr;
      if (token[0] == '-') {
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          return JsonValue(static_cast<std::int64_t>(v));
        }
      } else {
        const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          if (v <= static_cast<unsigned long long>(
                       std::numeric_limits<std::int64_t>::max())) {
            return JsonValue(static_cast<std::int64_t>(v));
          }
          return JsonValue(static_cast<std::uint64_t>(v));
        }
      }
      // Integral but out of 64-bit range: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    require(end != nullptr && *end == '\0', "malformed number");
    require(std::isfinite(d), "number out of double range");
    return JsonValue(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace nocmap::obs
