#pragma once
// The flat-JSON dialect every boundary of this codebase speaks: journal
// rows and batch headers (engine/journal), dispatch slice and error lines
// (engine/dispatch), the TCP HELLO/WELCOME handshake (util/net) and sflyd
// requests and responses (service/query, tools/sfly_query).
//
// One object per line or frame: string / number / bool values, arrays of
// unsigned integers or strings, and containers nested at most two deep
// (the sim response's embedded row, the rank response's array of rows).
// JsonObject is the only scanner and unescaper, json_quote the only
// escaper, json_f64 the only double writer; all are header-only so every
// consumer parses and writes the same bytes.  No streaming: a malformed object scans to false and the
// caller rejects it rather than guessing.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/parse.hpp"

namespace sfly {

class JsonObject {
 public:
  /// Scan `text` as one flat JSON object.  Returns false on any
  /// structural problem; `out` is then unspecified.
  static bool scan(const std::string& text, JsonObject& out) {
    std::size_t i = 0;
    const std::size_t n = text.size();
    auto skip_ws = [&] {
      while (i < n && (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
                       text[i] == '\r'))
        ++i;
    };
    auto expect = [&](char c) {
      if (i >= n || text[i] != c) return false;
      ++i;
      return true;
    };
    auto scan_string = [&](std::string& raw) {
      const std::size_t start = i;
      if (!expect('"')) return false;
      while (i < n && text[i] != '"') {
        if (text[i] == '\\') {
          if (i + 1 >= n) return false;
          i += 2;
        } else {
          ++i;
        }
      }
      if (!expect('"')) return false;
      raw = text.substr(start, i - start);
      return true;
    };
    auto scan_token = [&](std::string& raw) {
      skip_ws();
      const std::size_t start = i;
      if (i < n && text[i] == '"') return scan_string(raw);
      if (i < n && (text[i] == '[' || text[i] == '{')) {
        // A container stays a raw slice for the typed getters: walk
        // string-aware to its matching close (strings inside may hold
        // brackets), refusing anything nested deeper than two levels.
        std::string closers;
        do {
          const char c = text[i];
          if (c == '"') {
            std::string ignored;
            if (!scan_string(ignored)) return false;
            continue;
          }
          if (c == '[' || c == '{') {
            if (closers.size() == 2) return false;
            closers += c == '[' ? ']' : '}';
          } else if (c == ']' || c == '}') {
            if (c != closers.back()) return false;
            closers.pop_back();
          }
          ++i;
        } while (i < n && !closers.empty());
        if (!closers.empty()) return false;
      } else {
        while (i < n && text[i] != ',' && text[i] != '}' &&
               text[i] != ' ' && text[i] != '\t' && text[i] != '\n' &&
               text[i] != '\r')
          ++i;
      }
      if (i == start) return false;
      raw = text.substr(start, i - start);
      return true;
    };

    out.pairs_.clear();
    skip_ws();
    if (!expect('{')) return false;
    skip_ws();
    if (i < n && text[i] == '}') {
      ++i;
      skip_ws();
      return i == n;
    }
    while (true) {
      std::string key, value;
      skip_ws();
      if (!scan_string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      if (!scan_token(value)) return false;
      std::string plain;
      if (!unescape(key, plain)) return false;
      out.pairs_.emplace_back(std::move(plain), std::move(value));
      skip_ws();
      if (i < n && text[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    if (!expect('}')) return false;
    skip_ws();
    return i == n;
  }

  /// Raw token for `key` (still escaped / bracketed), or nullptr.
  [[nodiscard]] const std::string* raw(const std::string& key) const {
    for (const auto& [k, v] : pairs_)
      if (k == key) return &v;
    return nullptr;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return raw(key) != nullptr;
  }

  // Typed getters: absence or a wrong-typed value leaves `out` untouched
  // and returns false.

  [[nodiscard]] bool get_str(const std::string& key, std::string& out) const {
    const std::string* r = raw(key);
    return r && unescape(*r, out);
  }

  /// A parse_uint number that fits `out`'s type: a value that does not
  /// fit is rejected, never truncated.
  template <class T>
  [[nodiscard]] bool get_uint(const std::string& key, T& out) const {
    const std::string* r = raw(key);
    const auto v = r ? parse_uint<T>(*r) : std::nullopt;
    if (v) out = *v;
    return v.has_value();
  }

  [[nodiscard]] bool get_f64(const std::string& key, double& out) const {
    const std::string* r = raw(key);
    if (!r || r->empty()) return false;
    char* end = nullptr;
    const double v = std::strtod(r->c_str(), &end);
    if (end != r->c_str() + r->size()) return false;
    out = v;
    return true;
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool& out) const {
    const std::string* r = raw(key);
    if (!r) return false;
    if (*r == "true") return out = true, true;
    if (*r == "false") return out = false, true;
    return false;
  }

  /// "[1, 2,3]" (whitespace around items tolerated, no signs) -> values;
  /// the empty array is valid.
  [[nodiscard]] bool get_u64_array(const std::string& key,
                                   std::vector<std::uint64_t>& out) const {
    const std::string* r = raw(key);
    if (!r || r->size() < 2 || r->front() != '[' || r->back() != ']')
      return false;
    auto v = parse_uint_list<std::uint64_t>(
        std::string_view(*r).substr(1, r->size() - 2));
    if (v) out = std::move(*v);
    return v.has_value();
  }

  /// ["a", "b"] -> unescaped strings, parse_uint_list's item rule: one
  /// item per comma, whitespace around items tolerated, nothing else
  /// between ("[\"a\" \"b\"]", "[,\"a\"]" and "[\"a\",]" are refused);
  /// the empty array is valid.
  [[nodiscard]] bool get_str_array(const std::string& key,
                                   std::vector<std::string>& out) const {
    const std::string* r = raw(key);
    if (!r || r->size() < 2 || r->front() != '[' || r->back() != ']')
      return false;
    const std::string& s = *r;
    const std::size_t end = s.size() - 1;  // the closing ']'
    std::size_t i = 1;
    auto skip_ws = [&] {
      while (i < end && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r'))
        ++i;
    };
    out.clear();
    skip_ws();
    if (i == end) return true;
    for (;;) {
      skip_ws();
      if (i >= end || s[i] != '"') return false;
      const std::size_t start = i++;
      while (i < end && s[i] != '"') i += s[i] == '\\' ? 2 : 1;
      if (i >= end) return false;
      std::string plain;
      if (!unescape(s.substr(start, ++i - start), plain)) return false;
      out.push_back(std::move(plain));
      skip_ws();
      if (i == end) return true;
      if (s[i++] != ',') return false;
    }
  }

  /// Inverse of json_quote: `raw` includes the surrounding quotes.
  /// Public so responses embedding raw tokens can be unpacked.
  static bool unescape(const std::string& raw, std::string& out) {
    if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') return false;
    out.clear();
    for (std::size_t i = 1; i + 1 < raw.size(); ++i) {
      char c = raw[i];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (++i + 1 > raw.size()) return false;
      switch (raw[i]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (i + 4 + 1 > raw.size()) return false;
          char* end = nullptr;
          const std::string hex = raw.substr(i + 1, 4);
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4 || code < 0 || code > 0xff) return false;
          out += static_cast<char>(code);
          i += 4;
          break;
        }
        default: return false;
      }
    }
    return true;
  }

 private:
  // Key order preserved; values are raw token slices of the input.
  std::vector<std::pair<std::string, std::string>> pairs_;
};

/// `s` as a quoted JSON string: `"`, `\`, \n, \t and \r escaped by name,
/// every other byte below 0x20 as \u00XX (RFC 8259 §7), all else raw.
/// Journal bytes are built from this, so its output is a pinned format.
inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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
  return out;
}

/// `v` as a JSON number that parses back to the same double (`%.17g`):
/// journal rows and sflyd answers are built from this, a pinned format.
inline std::string json_f64(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace sfly
