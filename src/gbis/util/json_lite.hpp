// Minimal flat-JSON helpers shared by every NDJSON surface in gbis —
// the checkpoint journal (harness/checkpoint.*) and the service
// protocol (svc/protocol.*). This is deliberately not a JSON library:
// every producer in this repo emits one flat object per line with
// known keys, so the consumers scan for keys and parse the value
// token in place, no DOM, no allocation beyond the output string. A
// reader of many keys builds a JsonFieldIndex: one walk, then one
// (key, offset) pair per top-level member.
//
// Scanner contract: json_find_value walks the line as a token stream —
// string tokens are consumed whole (escapes included), nested
// object/array values are skipped atomically — so only *top-level
// keys* of the line's object can match, and text embedded inside a
// string value can never spoof a field. When the same key appears
// twice at the top level, the first occurrence wins. Keys are compared
// on their raw bytes between the quotes (no unescaping): the keys this
// repo emits are plain identifiers, and a key smuggled in via \u
// escapes deliberately does not match.
//
// The scanner is lenient about *scalar* token contents (any bare
// token of [0-9A-Za-z .+-] is skipped) so that historical journal
// lines keep parsing; json_object_valid is the strict structural
// check the socket-facing protocol layer runs first.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gbis {

/// Appends `value` as a JSON string literal (quotes included) with
/// ", \, and control characters escaped.
void append_json_string(std::string& out, const std::string& value);

/// Finds top-level key `key` in a flat one-line JSON object and
/// returns the index of its raw value token (whitespace after the
/// colon skipped), or std::string::npos when the key is absent or the
/// line is structurally broken before the key appears.
std::size_t json_find_value(const std::string& line, const std::string& key);

/// Strict structural check for one request line: a single JSON object,
/// string keys, values that are strings (with valid escapes — \uXXXX
/// must carry four hex digits), strictly-grammatical numbers,
/// true/false/null, or nested objects/arrays (depth-capped), and
/// nothing but whitespace after the closing brace. The socket protocol
/// runs this before any field scan so malformed input fails loudly
/// instead of misparsing.
bool json_object_valid(const std::string& line);

/// Parses a string field. Handles the full JSON escape set
/// (\" \\ \/ \b \f \n \r \t \uXXXX, surrogate pairs included; non-BMP
/// and non-ASCII code points are emitted as UTF-8). Returns false when
/// the key is missing, the value is not a well-terminated string, or
/// any escape is malformed — a truncated or non-hex \u sequence fails
/// the parse instead of silently embedding garbage.
bool json_parse_string(const std::string& line, const std::string& key,
                       std::string& out);

/// Scalar field parsers: false when the key is missing or the value
/// token does not parse. `out` is untouched on failure. Range errors
/// fail: a negative or overflowing value is rejected by json_parse_u64
/// (no strtoull wraparound), an out-of-range magnitude by
/// json_parse_i64, and a non-finite result by json_parse_double.
bool json_parse_u64(const std::string& line, const std::string& key,
                    std::uint64_t& out);
bool json_parse_i64(const std::string& line, const std::string& key,
                    std::int64_t& out);
bool json_parse_double(const std::string& line, const std::string& key,
                       double& out);
/// Accepts the literals `true` / `false` only.
bool json_parse_bool(const std::string& line, const std::string& key,
                     bool& out);

/// Parses a flat array of unsigned integers: `[1,2,3]` (or `[]`).
/// Strict element validation: every element must be a grammatical
/// non-negative JSON integer (no signs, no leading zeros, no floats,
/// no nested containers or strings), and the array must hold at most
/// `max_elements` entries — anything else returns false with `out`
/// untouched. Quote/escape-aware like every scanner here: a "[...]"
/// embedded in a string value can never match. The mutate op's edit
/// batches are the first consumer (docs/SERVICE.md).
bool json_parse_u64_array(const std::string& line, const std::string& key,
                          std::vector<std::uint64_t>& out,
                          std::size_t max_elements);

/// How a string-enum field parsed (json_parse_enum).
enum class JsonEnumStatus : std::uint8_t {
  kAbsent = 0,  ///< key not present; caller applies its default
  kValid,       ///< value is one of the allowed names; `out` holds it
  kInvalid,     ///< present but wrong type or unknown name — a parse
                ///  error, never a silent default
};

/// Strict closed-vocabulary string field: when `key` is present its
/// value must be a JSON string equal to one of the `count` names in
/// `allowed`. On kValid `out` receives the name; on kInvalid `out`
/// receives the offending string when the value at least parsed as a
/// string (so error messages can quote it) and "" when it was not a
/// string at all. Protocol enums ("quality", stats "format") route
/// through this so present-but-invalid fails loudly.
JsonEnumStatus json_parse_enum(const std::string& line,
                               const std::string& key,
                               const char* const* allowed, std::size_t count,
                               std::string& out);

/// The top-level members of one line, found in one walk under
/// json_find_value's rules: the first occurrence of a key wins, keys
/// compare as raw bytes, and the walk stops where the line breaks, so
/// find(key) == json_find_value(line, key) for every key. A reader
/// that looks up many keys (svc/protocol's parse_request) walks a long
/// line once instead of once per key. Each parse_* member returns what
/// the json_parse_* function of the same name returns. The index keeps
/// a reference to `line`, which must outlive it.
class JsonFieldIndex {
 public:
  explicit JsonFieldIndex(const std::string& line);
  explicit JsonFieldIndex(std::string&&) = delete;

  /// Index of `key`'s raw value token, or std::string::npos.
  std::size_t find(std::string_view key) const;
  bool has(std::string_view key) const {
    return find(key) != std::string::npos;
  }

  bool parse_string(std::string_view key, std::string& out) const;
  bool parse_u64(std::string_view key, std::uint64_t& out) const;
  bool parse_double(std::string_view key, double& out) const;
  bool parse_bool(std::string_view key, bool& out) const;
  bool parse_u64_array(std::string_view key, std::vector<std::uint64_t>& out,
                       std::size_t max_elements) const;
  JsonEnumStatus parse_enum(std::string_view key, const char* const* allowed,
                            std::size_t count, std::string& out) const;

 private:
  const std::string& line_;
  /// (key bytes, value index) in line order, duplicates included.
  std::vector<std::pair<std::string_view, std::size_t>> members_;
};

/// 16-digit zero-padded lower-case hex (the fingerprint wire format).
std::string to_hex16(std::uint64_t value);

/// Strict inverse of to_hex16: exactly 16 lower-case hex digits, no
/// prefix, no sign. The lenient strtoull would accept "0x...", signs,
/// and short strings — all of which should fail a fingerprint
/// reference or a CRC-guarded journal field instead.
bool parse_hex16(const std::string& text, std::uint64_t& out);

}  // namespace gbis
