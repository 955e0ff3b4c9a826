#pragma once

/// \file result_io.h
/// Machine-readable experiment output: a small ordered JSON value type with
/// a writer and a strict parser.  Every registered experiment and every
/// `Engine` evaluation can be serialized through this module, so the bench
/// trajectory (and CI) consume one format.
///
/// Design notes:
///  * objects preserve insertion order (stable diffs across runs);
///  * numbers are stored as double and printed with up to 17 significant
///    digits, so a dump -> parse round trip reproduces them bit-exactly;
///  * the parser is strict JSON (RFC 8259 subset: no comments, no trailing
///    commas) and throws defa::CheckError on malformed input.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace defa::api {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), num_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }

  // ---- scalar accessors (checked) -----------------------------------------
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;  ///< checked narrowing
  /// as_int() range-checked to `int`: a value outside [INT_MIN, INT_MAX]
  /// throws instead of wrapping into a different number.
  [[nodiscard]] int as_int32() const;
  [[nodiscard]] const std::string& as_string() const;

  // ---- array access -------------------------------------------------------
  void push_back(Json v);
  [[nodiscard]] std::size_t size() const;  ///< array/object element count
  [[nodiscard]] const Json& at(std::size_t i) const;
  [[nodiscard]] const std::vector<Json>& items() const;

  // ---- object access ------------------------------------------------------
  /// Insert-or-assign on an object (creates the key at the end).
  Json& operator[](const std::string& key);
  /// Checked lookup: throws when the key is absent.
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] const Json* find(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const;

  // ---- serialization ------------------------------------------------------
  /// `indent < 0` prints compact one-line JSON; `indent >= 0` pretty-prints.
  [[nodiscard]] std::string dump(int indent = -1) const;
  /// Strict parse; throws defa::CheckError with position info on error.
  [[nodiscard]] static Json parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Write `v` to `path` (pretty-printed, trailing newline).  Throws
/// defa::CheckError when the file cannot be written.
void write_json_file(const std::string& path, const Json& v);

/// Read and parse a JSON file.  Throws defa::CheckError on I/O or parse
/// failure.
[[nodiscard]] Json read_json_file(const std::string& path);

}  // namespace defa::api
