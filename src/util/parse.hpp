#pragma once
/// \file parse.hpp
/// The one strict integer parse behind every command-line number
/// (bench::Flags) and every HOST:PORT (net::parse_hostport).

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace sfly {

/// Strict full-string parse of a non-negative decimal integer; rejects
/// empty strings, signs, spaces, and trailing garbage ("12x" -> nullopt).
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view s) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return std::nullopt;
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace sfly
