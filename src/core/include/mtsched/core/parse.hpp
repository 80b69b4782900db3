// The text-reading primitives every mtsched reader shares (CLI options,
// DAG text, platform and machine files, the campaign CSV, rpc and trace
// JSON): one number grammar and one whitespace tokenizer. Readers add
// only their own error context (line number, field or member name).
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "mtsched/core/error.hpp"

namespace mtsched::core {

/// All of `text` as a T via std::from_chars: the exact inverse of the
/// std::to_chars / ostream text the writers emit. No leading '+' or
/// whitespace, no base prefix, no trailing characters; a '-' only for
/// signed types. Integers must fit in T and doubles must be finite.
/// nullopt on anything else.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return v;
}

/// parse_number for the line-based readers: a core::ParseError naming the
/// field and the line when `text` is not a T.
template <typename T>
T parse_field(std::string_view text, std::string_view what,
              std::size_t lineno) {
  if (const auto v = parse_number<T>(text)) return *v;
  throw ParseError("bad " + std::string(what) + " '" + std::string(text) +
                   "' on line " + std::to_string(lineno));
}

/// The runs of non-whitespace (space, tab, CR, VT, FF) in `line`.
inline std::vector<std::string_view> split_ws(std::string_view line) {
  constexpr std::string_view kSpace = " \t\r\v\f";
  std::vector<std::string_view> out;
  for (auto b = line.find_first_not_of(kSpace); b != line.npos;
       b = line.find_first_not_of(kSpace, b)) {
    out.push_back(line.substr(b, line.find_first_of(kSpace, b) - b));
    b += out.back().size();
  }
  return out;
}

}  // namespace mtsched::core
