#pragma once
/// \file parse.hpp
/// The one statement of what an integer and a `Family(a,b,...)` spec are,
/// behind every number that enters from outside: flags, HOST:PORT, JSON
/// numbers, topology and motif specs, dispatch row lines and env hooks.

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sfly {

/// Strict full-string parse of a non-negative decimal integer; rejects
/// empty strings, signs, spaces, and trailing garbage ("12x" -> nullopt):
/// from_chars into an unsigned type reads digits only.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view s) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

/// parse_u64 checked into the field type `T` and the range [lo, hi] (by
/// default: every non-negative value T holds).  A value outside it is
/// nullopt, never truncated: "4294967301" is not a uint32_t 5.
template <std::integral T>
[[nodiscard]] std::optional<T> parse_uint(
    std::string_view s, T lo = T{}, T hi = std::numeric_limits<T>::max()) {
  const auto v = parse_u64(s);
  if (!v || std::cmp_less(*v, lo) || std::cmp_greater(*v, hi))
    return std::nullopt;
  return static_cast<T>(*v);
}

/// "a<sep>b" -> {a, b}, both parse_uint<T>: "0/2" split at '/' is {0, 2}.
template <std::integral T>
[[nodiscard]] std::optional<std::pair<T, T>> parse_uint_pair(
    std::string_view s, char sep) {
  const auto at = s.find(sep);
  if (at == std::string_view::npos) return std::nullopt;
  const auto a = parse_uint<T>(s.substr(0, at));
  const auto b = parse_uint<T>(s.substr(at + 1));
  if (!a || !b) return std::nullopt;
  return std::pair{*a, *b};
}

/// "a, b ,c" -> {a, b, c}: comma-separated parse_uint<T> items with
/// optional whitespace around each; a blank string is the empty list.
/// nullopt when any item is malformed ("1,,2", "1 2", "-1").
template <std::integral T>
[[nodiscard]] std::optional<std::vector<T>> parse_uint_list(
    std::string_view s) {
  constexpr std::string_view kSpace = " \t\n\r";
  std::vector<T> out;
  if (s.find_first_not_of(kSpace) == std::string_view::npos) return out;
  for (;;) {
    const auto comma = s.find(',');
    std::string_view item = s.substr(0, comma);
    item.remove_prefix(std::min(item.size(), item.find_first_not_of(kSpace)));
    item = item.substr(0, item.find_last_not_of(kSpace) + 1);
    const auto v = parse_uint<T>(item);
    if (!v) return std::nullopt;
    out.push_back(*v);
    if (comma == std::string_view::npos) return out;
    s.remove_prefix(comma + 1);
  }
}

/// The grammar parse_spec accepts, for error messages.
inline constexpr const char* kSpecGrammar =
    "Family(a,b,...) with each argument in 0..4294967295";

struct SpecParts {
  std::string family;
  std::vector<std::uint32_t> args;
};

/// "LPS( 11 , 7 )" -> {"lps", {11, 7}}: the family is everything before
/// the first '(', the spec ends at its one ')', and the arguments are a
/// non-empty parse_uint_list<uint32_t>.  nullopt for anything else: no
/// parentheses, text after ')', no argument, a sign, or an argument past
/// 4294967295.
[[nodiscard]] inline std::optional<SpecParts> parse_spec(std::string_view s) {
  const auto open = s.find('(');
  if (open == std::string_view::npos || s.back() != ')') return std::nullopt;
  auto args = parse_uint_list<std::uint32_t>(
      s.substr(open + 1, s.size() - open - 2));
  if (!args || args->empty()) return std::nullopt;
  SpecParts out{std::string(s.substr(0, open)), std::move(*args)};
  for (char& c : out.family)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return out;
}

}  // namespace sfly
