#include "gbis/util/json_lite.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace gbis {

namespace {

constexpr std::size_t npos = std::string::npos;
/// Nesting bound for skipped object/array values. The protocol is
/// flat; the checkpoint journal nests at most object -> array ->
/// array. Anything deeper is hostile input.
constexpr int kMaxDepth = 8;

std::size_t skip_ws(const std::string& line, std::size_t i) {
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  return i;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Consumes a string token starting at the opening quote; returns the
/// index one past the closing quote, or npos when the token is
/// unterminated, contains a raw control character, or carries a \u
/// escape without four hex digits. Escaped characters other than u are
/// skipped without validation here — json_parse_string enforces the
/// legal escape set when a string is actually decoded.
std::size_t skip_string_token(const std::string& line, std::size_t i) {
  ++i;  // opening quote
  while (i < line.size()) {
    const unsigned char c = static_cast<unsigned char>(line[i]);
    if (c == '"') return i + 1;
    if (c < 0x20) return npos;
    if (c == '\\') {
      if (i + 1 >= line.size()) return npos;
      if (line[i + 1] == 'u') {
        if (i + 5 >= line.size()) return npos;
        for (std::size_t d = i + 2; d < i + 6; ++d) {
          if (hex_digit(line[d]) < 0) return npos;
        }
        i += 6;
      } else {
        i += 2;
      }
    } else {
      ++i;
    }
  }
  return npos;
}

bool is_scalar_char(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z') || c == '+' || c == '-' || c == '.';
}

/// Consumes a strictly-grammatical JSON number; npos when the token
/// does not match `-?int frac? exp?`.
std::size_t skip_number_strict(const std::string& line, std::size_t i) {
  if (i < line.size() && line[i] == '-') ++i;
  const std::size_t int_start = i;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') ++i;
  if (i == int_start) return npos;
  // JSON int part: "0" or [1-9][0-9]* — no leading zeros.
  if (line[int_start] == '0' && i - int_start > 1) return npos;
  if (i < line.size() && line[i] == '.') {
    ++i;
    const std::size_t frac_start = i;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') ++i;
    if (i == frac_start) return npos;
  }
  if (i < line.size() && (line[i] == 'e' || line[i] == 'E')) {
    ++i;
    if (i < line.size() && (line[i] == '+' || line[i] == '-')) ++i;
    const std::size_t exp_start = i;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') ++i;
    if (i == exp_start) return npos;
  }
  return i;
}

std::size_t skip_value(const std::string& line, std::size_t i, int depth,
                       bool strict);

/// Consumes `{...}` (want == '}') or `[...]` (want == ']') including
/// the closing bracket; npos on malformed contents.
std::size_t skip_container(const std::string& line, std::size_t i, int depth,
                           bool strict, char want) {
  if (depth >= kMaxDepth) return npos;
  i = skip_ws(line, i + 1);  // past the opening bracket
  if (i < line.size() && line[i] == want) return i + 1;
  while (i < line.size()) {
    if (want == '}') {  // object member: "key" : value
      if (line[i] != '"') return npos;
      i = skip_string_token(line, i);
      if (i == npos) return npos;
      i = skip_ws(line, i);
      if (i >= line.size() || line[i] != ':') return npos;
      i = skip_ws(line, i + 1);
    }
    i = skip_value(line, i, depth + 1, strict);
    if (i == npos) return npos;
    i = skip_ws(line, i);
    if (i >= line.size()) return npos;
    if (line[i] == want) return i + 1;
    if (line[i] != ',') return npos;
    i = skip_ws(line, i + 1);
  }
  return npos;
}

std::size_t skip_value(const std::string& line, std::size_t i, int depth,
                       bool strict) {
  if (i >= line.size()) return npos;
  const char c = line[i];
  if (c == '"') return skip_string_token(line, i);
  if (c == '{') return skip_container(line, i, depth, strict, '}');
  if (c == '[') return skip_container(line, i, depth, strict, ']');
  if (strict) {
    if (line.compare(i, 4, "true") == 0) return i + 4;
    if (line.compare(i, 5, "false") == 0) return i + 5;
    if (line.compare(i, 4, "null") == 0) return i + 4;
    return skip_number_strict(line, i);
  }
  // Lenient scalar: any bare token (numbers, literals, historical
  // journal oddities like inf). At least one character.
  const std::size_t start = i;
  while (i < line.size() && is_scalar_char(line[i])) ++i;
  return i > start ? i : npos;
}

/// The one top-level member walk behind json_find_value,
/// json_object_valid and JsonFieldIndex: calls visit(key, value_index)
/// for each `"key": value` member of the line's object, in order, with
/// the key's raw bytes between the quotes. Returns the value index at
/// which visit returned true, else npos when the object closes or the
/// line breaks. With strict == true it also checks every value and
/// returns 0 when the object closes with only whitespace after it (the
/// json_object_valid path, whose visit never stops the walk).
template <typename Visit>
std::size_t walk_members(const std::string& line, bool strict,
                         Visit&& visit) {
  std::size_t i = skip_ws(line, 0);
  if (i >= line.size() || line[i] != '{') return npos;
  i = skip_ws(line, i + 1);
  if (i < line.size() && line[i] == '}') {
    if (!strict) return npos;
    return skip_ws(line, i + 1) == line.size() ? 0 : npos;
  }
  while (i < line.size()) {
    if (line[i] != '"') return npos;
    const std::size_t key_start = i + 1;
    i = skip_string_token(line, i);
    if (i == npos) return npos;
    const std::string_view key(line.data() + key_start, i - 1 - key_start);
    i = skip_ws(line, i);
    if (i >= line.size() || line[i] != ':') return npos;
    i = skip_ws(line, i + 1);
    if (visit(key, i)) return i;
    i = skip_value(line, i, 1, strict);
    if (i == npos) return npos;
    i = skip_ws(line, i);
    if (i >= line.size()) return npos;
    if (line[i] == '}') {
      if (!strict) return npos;  // key not found in a well-formed line
      return skip_ws(line, i + 1) == line.size() ? 0 : npos;
    }
    if (line[i] != ',') return npos;
    i = skip_ws(line, i + 1);
  }
  return npos;
}

/// Encodes one Unicode code point as UTF-8.
void append_utf8(std::string& out, std::uint32_t cp) {
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

/// Parses the four hex digits after `\u`; false on truncation or any
/// non-hex digit (the old strtoul path parsed "ZZZZ" as 0, silently
/// embedding a NUL).
bool parse_u_escape(const std::string& line, std::size_t i,
                    std::uint32_t& out) {
  if (i + 4 > line.size()) return false;
  std::uint32_t value = 0;
  for (std::size_t d = 0; d < 4; ++d) {
    const int digit = hex_digit(line[i + d]);
    if (digit < 0) return false;
    value = (value << 4) | static_cast<std::uint32_t>(digit);
  }
  out = value;
  return true;
}

}  // namespace

void append_json_string(std::string& out, const std::string& value) {
  out += '"';
  for (const char raw : value) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  out += '"';
}

std::size_t json_find_value(const std::string& line, const std::string& key) {
  return walk_members(line, /*strict=*/false,
                      [&](std::string_view member, std::size_t) {
                        return member == key;
                      });
}

bool json_object_valid(const std::string& line) {
  return walk_members(line, /*strict=*/true,
                      [](std::string_view, std::size_t) { return false; }) !=
         npos;
}

namespace {

// The json_parse_* bodies, run at a value index from json_find_value
// or JsonFieldIndex::find (npos when the key is absent).

bool parse_string_at(const std::string& line, std::size_t i,
                     std::string& out) {
  if (i == npos || i >= line.size() || line[i] != '"') return false;
  ++i;
  std::string result;
  while (i < line.size()) {
    const unsigned char c = static_cast<unsigned char>(line[i]);
    if (c == '"') {
      out = std::move(result);
      return true;
    }
    if (c < 0x20) return false;  // raw control character
    if (c != '\\') {
      result += line[i++];
      continue;
    }
    if (i + 1 >= line.size()) return false;  // dangling backslash
    const char esc = line[i + 1];
    switch (esc) {
      case '"': result += '"'; i += 2; break;
      case '\\': result += '\\'; i += 2; break;
      case '/': result += '/'; i += 2; break;
      case 'b': result += '\b'; i += 2; break;
      case 'f': result += '\f'; i += 2; break;
      case 'n': result += '\n'; i += 2; break;
      case 'r': result += '\r'; i += 2; break;
      case 't': result += '\t'; i += 2; break;
      case 'u': {
        std::uint32_t cp = 0;
        if (!parse_u_escape(line, i + 2, cp)) return false;
        i += 6;
        if (cp >= 0xDC00 && cp <= 0xDFFF) return false;  // lone low
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: require the paired \uDC00..\uDFFF.
          std::uint32_t low = 0;
          if (i + 1 >= line.size() || line[i] != '\\' || line[i + 1] != 'u' ||
              !parse_u_escape(line, i + 2, low) ||
              low < 0xDC00 || low > 0xDFFF) {
            return false;
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          i += 6;
        }
        append_utf8(result, cp);
        break;
      }
      default: return false;  // not a JSON escape
    }
  }
  return false;  // unterminated string
}

bool parse_u64_at(const std::string& line, std::size_t i,
                  std::uint64_t& out) {
  if (i == npos || i >= line.size()) return false;
  // strtoull itself accepts a leading '-' and wraps ({"budget":-1}
  // would parse as 2^64-1) and a non-JSON '+': reject both up front.
  if (line[i] == '-' || line[i] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(line.c_str() + i, &end, 10);
  if (end == line.c_str() + i || errno == ERANGE) return false;
  out = value;
  return true;
}

bool parse_i64_at(const std::string& line, std::size_t i, std::int64_t& out) {
  if (i == npos || i >= line.size()) return false;
  if (line[i] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const std::int64_t value = std::strtoll(line.c_str() + i, &end, 10);
  if (end == line.c_str() + i || errno == ERANGE) return false;
  out = value;
  return true;
}

bool parse_double_at(const std::string& line, std::size_t i, double& out) {
  if (i == npos || i >= line.size()) return false;
  if (line[i] == '+') return false;
  char* end = nullptr;
  const double value = std::strtod(line.c_str() + i, &end);
  // Overflow saturates to +/-inf and strtod also accepts literal
  // inf/nan tokens; none of those are JSON numbers.
  if (end == line.c_str() + i || !std::isfinite(value)) return false;
  out = value;
  return true;
}

bool parse_bool_at(const std::string& line, std::size_t i, bool& out) {
  if (i == npos) return false;
  if (line.compare(i, 4, "true") == 0) {
    out = true;
    return true;
  }
  if (line.compare(i, 5, "false") == 0) {
    out = false;
    return true;
  }
  return false;
}

bool parse_u64_array_at(const std::string& line, std::size_t i,
                        std::vector<std::uint64_t>& out,
                        std::size_t max_elements) {
  if (i == npos || i >= line.size() || line[i] != '[') return false;
  std::vector<std::uint64_t> result;
  i = skip_ws(line, i + 1);
  if (i < line.size() && line[i] == ']') {
    out = std::move(result);
    return true;
  }
  while (i < line.size()) {
    // Strict element grammar first (rejects signs, leading zeros,
    // floats, exponents), then the bounded-range decode.
    const std::size_t end = skip_number_strict(line, i);
    if (end == npos || line[i] == '-') return false;
    if (std::string_view(line).substr(i, end - i).find_first_of(".eE") !=
        std::string_view::npos) {
      return false;
    }
    if (result.size() >= max_elements) return false;
    errno = 0;
    char* parse_end = nullptr;
    const std::uint64_t value = std::strtoull(line.c_str() + i, &parse_end, 10);
    if (parse_end != line.c_str() + end || errno == ERANGE) return false;
    result.push_back(value);
    i = skip_ws(line, end);
    if (i >= line.size()) return false;  // unterminated array
    if (line[i] == ']') {
      out = std::move(result);
      return true;
    }
    if (line[i] != ',') return false;
    i = skip_ws(line, i + 1);
  }
  return false;
}

JsonEnumStatus parse_enum_at(const std::string& line, std::size_t i,
                             const char* const* allowed, std::size_t count,
                             std::string& out) {
  if (i == npos) return JsonEnumStatus::kAbsent;
  std::string value;
  if (!parse_string_at(line, i, value)) {
    out.clear();  // present but not a string — nothing quotable
    return JsonEnumStatus::kInvalid;
  }
  for (std::size_t k = 0; k < count; ++k) {
    if (value == allowed[k]) {
      out = std::move(value);
      return JsonEnumStatus::kValid;
    }
  }
  out = std::move(value);
  return JsonEnumStatus::kInvalid;
}

}  // namespace

bool json_parse_string(const std::string& line, const std::string& key,
                       std::string& out) {
  return parse_string_at(line, json_find_value(line, key), out);
}

bool json_parse_u64(const std::string& line, const std::string& key,
                    std::uint64_t& out) {
  return parse_u64_at(line, json_find_value(line, key), out);
}

bool json_parse_i64(const std::string& line, const std::string& key,
                    std::int64_t& out) {
  return parse_i64_at(line, json_find_value(line, key), out);
}

bool json_parse_double(const std::string& line, const std::string& key,
                       double& out) {
  return parse_double_at(line, json_find_value(line, key), out);
}

bool json_parse_bool(const std::string& line, const std::string& key,
                     bool& out) {
  return parse_bool_at(line, json_find_value(line, key), out);
}

bool json_parse_u64_array(const std::string& line, const std::string& key,
                          std::vector<std::uint64_t>& out,
                          std::size_t max_elements) {
  return parse_u64_array_at(line, json_find_value(line, key), out,
                            max_elements);
}

JsonEnumStatus json_parse_enum(const std::string& line,
                               const std::string& key,
                               const char* const* allowed, std::size_t count,
                               std::string& out) {
  return parse_enum_at(line, json_find_value(line, key), allowed, count, out);
}

JsonFieldIndex::JsonFieldIndex(const std::string& line) : line_(line) {
  walk_members(line, /*strict=*/false,
               [&](std::string_view key, std::size_t value) {
                 members_.emplace_back(key, value);
                 return false;
               });
}

std::size_t JsonFieldIndex::find(std::string_view key) const {
  for (const auto& [k, value] : members_) {
    if (k == key) return value;  // first occurrence wins
  }
  return npos;
}

bool JsonFieldIndex::parse_string(std::string_view key,
                                  std::string& out) const {
  return parse_string_at(line_, find(key), out);
}

bool JsonFieldIndex::parse_u64(std::string_view key,
                               std::uint64_t& out) const {
  return parse_u64_at(line_, find(key), out);
}

bool JsonFieldIndex::parse_i64(std::string_view key, std::int64_t& out) const {
  return parse_i64_at(line_, find(key), out);
}

bool JsonFieldIndex::parse_double(std::string_view key, double& out) const {
  return parse_double_at(line_, find(key), out);
}

bool JsonFieldIndex::parse_bool(std::string_view key, bool& out) const {
  return parse_bool_at(line_, find(key), out);
}

bool JsonFieldIndex::parse_u64_array(std::string_view key,
                                     std::vector<std::uint64_t>& out,
                                     std::size_t max_elements) const {
  return parse_u64_array_at(line_, find(key), out, max_elements);
}

JsonEnumStatus JsonFieldIndex::parse_enum(std::string_view key,
                                          const char* const* allowed,
                                          std::size_t count,
                                          std::string& out) const {
  return parse_enum_at(line_, find(key), allowed, count, out);
}

std::string to_hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

bool parse_hex16(const std::string& text, std::uint64_t& out) {
  if (text.size() != 16) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  out = value;
  return true;
}

}  // namespace gbis
