// Strict numeric flag values, shared by the jsoncdn CLIs and the positional
// arguments of the figure, ablation and example binaries.
//
// An integer flag takes decimal digits only (no sign, no whitespace, no
// suffix), must consume its whole argument and must fit the destination
// type; a floating-point flag must parse completely to a finite value. A
// bad value exits 2 with a message naming the flag, so `--threads -1` or
// `--records abc` can never become a huge or a zero count.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace jsoncdn::cli {

// Parses all of `text` into `out`. False on an empty or partly consumed
// string, a value outside T's range, a sign on an unsigned T, or a
// non-finite double.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

[[noreturn]] inline void bad_flag_value(std::string_view flag,
                                        const char* text) {
  std::fprintf(stderr, "bad value for %.*s: '%s'\n",
               static_cast<int>(flag.size()), flag.data(), text);
  std::exit(2);
}

// The value `text` gives `flag`, or exit 2 naming the flag.
template <typename T>
[[nodiscard]] T flag_value(std::string_view flag, const char* text) {
  T value{};
  if (!parse_number(text, value)) bad_flag_value(flag, text);
  return value;
}

// A scale or a count given as positional argument `name` (the figure,
// ablation and example binaries): flag_value's parse, and positive. Zero,
// a negative or a non-number exits 2 naming the argument.
template <typename T>
[[nodiscard]] T positive_value(std::string_view name, const char* text) {
  const T value = flag_value<T>(name, text);
  if (!(value > T{0})) bad_flag_value(name, text);
  return value;
}

}  // namespace jsoncdn::cli
