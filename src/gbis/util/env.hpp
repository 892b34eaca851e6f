// The whole-text number rules that command-line flags and GBIS_*
// environment knobs share, and the one warning a rejected knob prints.
// A flag that breaks a rule is a usage error (the CLI exits 2); a knob
// that breaks one warns and keeps its default.
#pragma once

#include <cstdint>
#include <optional>

namespace gbis {

/// An unsigned decimal that is the whole of `text`: it starts with a
/// digit (no sign, no space), nothing follows it, and it fits in 64
/// bits. False leaves `out` untouched.
bool parse_whole_u64(const char* text, std::uint64_t& out);

/// A finite number that is the whole of `text` in strtod's syntax, so
/// a sign or leading space passes and a suffix, inf or nan does not.
/// False leaves `out` untouched.
bool parse_whole_double(const char* text, double& out);

/// Prints `gbis: ignoring malformed VAR="text" (keeping default)` on
/// stderr.
void warn_rejected(const char* var, const char* text);

/// Reads `var` as a parse_whole_u64 count in [min, max]. Unset gives
/// nullopt; a malformed or out-of-range value warns, then gives
/// nullopt.
std::optional<std::uint64_t> env_u64(const char* var, std::uint64_t min,
                                     std::uint64_t max);

}  // namespace gbis
