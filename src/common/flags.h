#pragma once

/// \file flags.h
/// Checked parsing of numeric command-line flag values.  A value is
/// accepted only when the *whole* string is a number of the flag's type
/// inside the flag's range: "7junk", "4x", "-1" for a count, "1e400" and
/// "nan" all fail, instead of being truncated, wrapped or clamped.

#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace defa {

/// A malformed or out-of-range flag value.  The tools report it as a usage
/// error (exit status 2), apart from failures of the work itself (1).
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parse all of `text` as a base-10 integer (integral T) or a finite
/// decimal number (T = double) in [lo, hi].  Throws FlagError naming
/// `flag`, its expected range and the rejected text otherwise.
template <class T>
[[nodiscard]] T parse_flag(std::string_view flag, std::string_view text,
                           T lo = std::numeric_limits<T>::lowest(),
                           T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  // NaN fails both comparisons and ±inf lies outside any finite bounds.
  if (ec != std::errc() || end != last || !(value >= lo && value <= hi)) {
    std::ostringstream msg;
    msg << flag << ": expected " << (std::is_integral_v<T> ? "an integer" : "a number")
        << " in [" << lo << ", " << hi << "], got '" << text << "'";
    throw FlagError(msg.str());
  }
  return value;
}

}  // namespace defa
