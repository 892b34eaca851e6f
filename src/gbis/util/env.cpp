#include "gbis/util/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>

namespace gbis {

bool parse_whole_u64(const char* text, std::uint64_t& out) {
  if (std::isdigit(static_cast<unsigned char>(*text)) == 0) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  out = value;
  return true;
}

bool parse_whole_double(const char* text, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*text == '\0' || *end != '\0' || !std::isfinite(value)) return false;
  out = value;
  return true;
}

void warn_rejected(const char* var, const char* text) {
  std::cerr << "gbis: ignoring malformed " << var << "=\"" << text
            << "\" (keeping default)\n";
}

std::optional<std::uint64_t> env_u64(const char* var, std::uint64_t min,
                                     std::uint64_t max) {
  const char* text = std::getenv(var);
  if (text == nullptr) return std::nullopt;
  std::uint64_t value = 0;
  if (!parse_whole_u64(text, value) || value < min || value > max) {
    warn_rejected(var, text);
    return std::nullopt;
  }
  return value;
}

}  // namespace gbis
