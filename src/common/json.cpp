#include "common/json.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace horus {

namespace {

[[noreturn]] void type_error(const char* want) {
  throw JsonError(std::string("json: value is not ") + want);
}

}  // namespace

bool Json::as_bool() const {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  type_error("a bool");
}

std::int64_t Json::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  type_error("an integer");
}

double Json::as_double() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  type_error("a number");
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  type_error("a string");
}

const Json::Array& Json::as_array() const {
  if (const auto* a = std::get_if<Array>(&value_)) return *a;
  type_error("an array");
}

Json::Array& Json::as_array() {
  if (auto* a = std::get_if<Array>(&value_)) return *a;
  type_error("an array");
}

const Json::Object& Json::as_object() const {
  if (const auto* o = std::get_if<Object>(&value_)) return *o;
  type_error("an object");
}

Json::Object& Json::as_object() {
  if (auto* o = std::get_if<Object>(&value_)) return *o;
  type_error("an object");
}

const Json& Json::at(std::string_view key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) {
    throw JsonError("json: missing member '" + std::string(key) + "'");
  }
  return it->second;
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) value_ = Object{};
  auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) {
    it = obj.emplace(std::string(key), Json()).first;
  }
  return it->second;
}

bool Json::contains(std::string_view key) const noexcept {
  const auto* o = std::get_if<Object>(&value_);
  return o != nullptr && o->find(key) != o->end();
}

std::string Json::get_or(std::string_view key, std::string fallback) const {
  if (!contains(key)) return fallback;
  const Json& v = at(key);
  return v.is_string() ? v.as_string() : fallback;
}

std::int64_t Json::get_or(std::string_view key, std::int64_t fallback) const {
  if (!contains(key)) return fallback;
  const Json& v = at(key);
  return v.is_int() ? v.as_int() : fallback;
}

void Json::push_back(Json v) {
  if (is_null()) value_ = Array{};
  as_array().push_back(std::move(v));
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
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
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
          out += buf.data();
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const auto newline = [&](int d) {
    if (pretty) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };

  if (is_null()) {
    out += "null";
  } else if (const auto* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    out += std::to_string(*i);
  } else if (const auto* d = std::get_if<double>(&value_)) {
    if (std::isfinite(*d)) {
      std::array<char, 32> buf{};
      auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), *d);
      (void)ec;
      const std::string_view text(buf.data(), ptr);
      out += text;
      // An integral double ("3") would parse back as an integer; keep the
      // type through a round trip.
      if (text.find_first_of(".eE") == std::string_view::npos) out += ".0";
    } else {
      // JSON has no Inf/NaN; emit null like most tolerant serializers.
      out += "null";
    }
  } else if (const auto* s = std::get_if<std::string>(&value_)) {
    out += '"';
    out += json_escape(*s);
    out += '"';
  } else if (const auto* a = std::get_if<Array>(&value_)) {
    if (a->empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const Json& v : *a) {
      if (!first) out += ',';
      first = false;
      newline(depth + 1);
      v.dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out += ']';
  } else if (const auto* o = std::get_if<Object>(&value_)) {
    if (o->empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [k, v] : *o) {
      if (!first) out += ',';
      first = false;
      newline(depth + 1);
      out += '"';
      out += json_escape(k);
      out += "\":";
      if (pretty) out += ' ';
      v.dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out += '}';
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string Json::dump_pretty(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent RFC 8259 parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json parse error at byte " + std::to_string(pos_) + ": " +
                    what);
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    char c = peek();
    Json result;
    switch (c) {
      case '{': result = parse_object(); break;
      case '[': result = parse_array(); break;
      case '"': result = Json(parse_string()); break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        result = Json(true);
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        result = Json(false);
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        result = Json(nullptr);
        break;
      default: result = parse_number(); break;
    }
    --depth_;
    return result;
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      char c = next();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = next();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') break;
      if (c == '\\') {
        char esc = next();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': append_unicode_escape(out); break;
          default: fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = next();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v += static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v += static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v += static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return v;
  }

  void append_unicode_escape(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // High surrogate: must be followed by \uDC00-\uDFFF.
      if (next() != '\\' || next() != 'u') fail("unpaired surrogate");
      unsigned lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // Encode cp as UTF-8.
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

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      if (digits() == 0) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("digits required in exponent");
    }
    std::string_view tok = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t i = 0;
      auto [ptr, ec] = std::from_chars(tok.begin(), tok.end(), i);
      if (ec == std::errc() && ptr == tok.end()) return Json(i);
      // Integer overflow: fall through to double.
    }
    double d = 0;
    auto [ptr, ec] = std::from_chars(tok.begin(), tok.end(), d);
    if (ec != std::errc() || ptr != tok.end()) fail("invalid number");
    return Json(d);
  }
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace horus
