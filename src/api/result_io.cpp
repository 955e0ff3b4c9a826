#include "api/result_io.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

namespace defa::api {

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool() const {
  DEFA_CHECK(type_ == Type::kBool, "Json: not a bool");
  return bool_;
}

double Json::as_number() const {
  DEFA_CHECK(type_ == Type::kNumber, "Json: not a number");
  return num_;
}

std::int64_t Json::as_int() const {
  const double v = as_number();
  // 2^63 bounds the doubles that convert to int64 without overflow.
  DEFA_CHECK(v >= -9223372036854775808.0 && v < 9223372036854775808.0,
             "Json: integer out of int64 range");
  const auto i = static_cast<std::int64_t>(v);
  DEFA_CHECK(static_cast<double>(i) == v, "Json: number is not an integer");
  return i;
}

int Json::as_int32() const {
  const std::int64_t i = as_int();
  DEFA_CHECK(i >= std::numeric_limits<int>::min() && i <= std::numeric_limits<int>::max(),
             "Json: integer " + std::to_string(i) + " out of int range");
  return static_cast<int>(i);
}

const std::string& Json::as_string() const {
  DEFA_CHECK(type_ == Type::kString, "Json: not a string");
  return str_;
}

void Json::push_back(Json v) {
  DEFA_CHECK(type_ == Type::kArray, "Json: push_back on non-array");
  arr_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  DEFA_CHECK(false, "Json: size() on scalar");
  return 0;
}

const Json& Json::at(std::size_t i) const {
  DEFA_CHECK(type_ == Type::kArray, "Json: indexed access on non-array");
  DEFA_CHECK(i < arr_.size(), "Json: array index out of range");
  return arr_[i];
}

const std::vector<Json>& Json::items() const {
  DEFA_CHECK(type_ == Type::kArray, "Json: items() on non-array");
  return arr_;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;  // convenience: {}["k"]
  DEFA_CHECK(type_ == Type::kObject, "Json: keyed access on non-object");
  for (auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  obj_.emplace_back(key, Json());
  return obj_.back().second;
}

const Json& Json::at(const std::string& key) const {
  const Json* p = find(key);
  DEFA_CHECK(p != nullptr, "Json: missing key '" + key + "'");
  return *p;
}

const Json* Json::find(const std::string& key) const {
  DEFA_CHECK(type_ == Type::kObject, "Json: keyed access on non-object");
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Json::contains(const std::string& key) const { return find(key) != nullptr; }

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  DEFA_CHECK(type_ == Type::kObject, "Json: members() on non-object");
  return obj_;
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kNumber:
      return a.num_ == b.num_;
    case Json::Type::kString:
      return a.str_ == b.str_;
    case Json::Type::kArray:
      return a.arr_ == b.arr_;
    case Json::Type::kObject:
      return a.obj_ == b.obj_;
  }
  return false;
}

// ------------------------------------------------------------------- writer

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double v, std::string& out) {
  DEFA_CHECK(std::isfinite(v), "Json: cannot serialize a non-finite number");
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    // Integral values print without an exponent or trailing zeros.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    out += buf;
    return;
  }
  // Shortest representation that round-trips: try increasing precision.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  const std::string pad(indent > 0 ? static_cast<std::size_t>(indent) : 0, ' ');

  const auto newline = [&](std::string& o, int depth) {
    if (indent < 0) return;
    o += '\n';
    for (int i = 0; i < depth; ++i) o += pad;
  };

  const std::function<void(const Json&, int)> emit = [&](const Json& v, int depth) {
    switch (v.type_) {
      case Type::kNull: out += "null"; break;
      case Type::kBool: out += v.bool_ ? "true" : "false"; break;
      case Type::kNumber: dump_number(v.num_, out); break;
      case Type::kString: dump_string(v.str_, out); break;
      case Type::kArray: {
        if (v.arr_.empty()) { out += "[]"; break; }
        out += '[';
        for (std::size_t i = 0; i < v.arr_.size(); ++i) {
          if (i > 0) out += ',';
          newline(out, depth + 1);
          emit(v.arr_[i], depth + 1);
        }
        newline(out, depth);
        out += ']';
        break;
      }
      case Type::kObject: {
        if (v.obj_.empty()) { out += "{}"; break; }
        out += '{';
        for (std::size_t i = 0; i < v.obj_.size(); ++i) {
          if (i > 0) out += ",";
          newline(out, depth + 1);
          dump_string(v.obj_[i].first, out);
          out += indent < 0 ? ":" : ": ";
          emit(v.obj_[i].second, depth + 1);
        }
        newline(out, depth);
        out += '}';
        break;
      }
    }
  };
  emit(*this, 0);
  return out;
}

// ------------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json run() {
    Json v = value();
    skip_ws();
    check(pos_ == s_.size(), "trailing characters after JSON value");
    return v;
  }

 private:
  void check(bool cond, const std::string& what) const {
    DEFA_CHECK(cond, "Json parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    check(pos_ < s_.size(), "unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    check(pos_ < s_.size() && s_[pos_] == c,
          std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return Json(string());
    if (c == 't') { check(consume_literal("true"), "bad literal"); return Json(true); }
    if (c == 'f') { check(consume_literal("false"), "bad literal"); return Json(false); }
    if (c == 'n') { check(consume_literal("null"), "bad literal"); return Json(); }
    return number();
  }

  Json object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') { ++pos_; return obj; }
    while (true) {
      skip_ws();
      check(peek() == '"', "expected object key");
      std::string key = string();
      skip_ws();
      expect(':');
      check(!obj.contains(key), "duplicate object key '" + key + "'");
      obj[key] = value();
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return obj;
    }
  }

  Json array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') { ++pos_; return arr; }
    while (true) {
      arr.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return arr;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      check(pos_ < s_.size(), "unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        check(static_cast<unsigned char>(c) >= 0x20, "unescaped control character");
        out += c;
        continue;
      }
      check(pos_ < s_.size(), "unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          check(pos_ + 4 <= s_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else check(false, "bad \\u escape");
          }
          // Encode as UTF-8 (BMP only; our writer never emits surrogates).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: check(false, "unknown escape"); break;
      }
    }
  }

  Json number() {
    // RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    const std::size_t start = pos_;
    const auto digit = [&] {
      return pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]));
    };
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    check(digit(), "expected a value");
    if (s_[pos_] == '0') {
      ++pos_;
      check(!digit(), "leading zeros are not allowed");
    } else {
      while (digit()) ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      check(digit(), "digit required after decimal point");
      while (digit()) ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      check(digit(), "digit required in exponent");
      while (digit()) ++pos_;
    }
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    check(end != nullptr && *end == '\0' && std::isfinite(v),
          "malformed number '" + tok + "'");
    return Json(v);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).run(); }

void write_json_file(const std::string& path, const Json& v) {
  std::ofstream out(path);
  DEFA_CHECK(out.good(), "cannot open '" + path + "' for writing");
  out << v.dump(2) << '\n';
  out.close();
  DEFA_CHECK(out.good(), "failed to write '" + path + "'");
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path);
  DEFA_CHECK(in.good(), "cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

}  // namespace defa::api
