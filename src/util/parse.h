// Strict number parsing for repro files, mapping CSVs and command-line
// options: a value is one whole token or an error, never a numeric prefix or
// a silently wrapped negative.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "util/error.h"

namespace nocmap {

/// Parses all of `text` as one T: an integer type, a double, or a bool
/// (only "0" and "1"). Leading whitespace, a '+' sign, a '-' sign on an
/// unsigned type, trailing characters and values outside T's range throw
/// Error naming `what`, the key or option the text came from.
template <typename T>
T parse_number(std::string_view text, std::string_view what) {
  const auto fail = [&](const char* why) {
    throw Error(std::string(why) + " value '" + std::string(text) +
                "' for " + std::string(what));
  };
  if constexpr (std::is_same_v<T, bool>) {
    if (text != "0" && text != "1") fail("non-boolean (want 0 or 1)");
    return text == "1";
  } else {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range) fail("out-of-range");
    if (ec != std::errc() || ptr != end) fail("non-numeric");
    return value;
  }
}

}  // namespace nocmap
