// Shared numeric-option parsing for the command-line front ends.
//
// std::stoul would silently wrap "--netgen -5" into a huge count and
// std::stod would terminate the process on "--segment abc"; every numeric
// option of nbuf_cli, nbuf_serve and nbuf_gen goes through these helpers
// instead, so a bad value is a usage error (exit 2) with a message naming
// the option, never a wrap or an abort.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace nbuf::cli {

inline bool parse_count(const char* v, const char* what, std::size_t& out) {
  if (v != nullptr && std::isdigit(static_cast<unsigned char>(*v))) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (errno != ERANGE && end != nullptr && *end == '\0') {
      out = static_cast<std::size_t>(n);
      return true;
    }
  }
  std::fprintf(stderr, "%s needs a nonnegative integer, got '%s'\n", what,
               v == nullptr ? "" : v);
  return false;
}

inline bool parse_count64(const char* v, const char* what,
                          std::uint64_t& out) {
  std::size_t n = 0;
  if (!parse_count(v, what, n)) return false;
  out = n;
  return true;
}

inline bool parse_number(const char* v, const char* what, double& out) {
  if (v != nullptr && *v != '\0') {
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(v, &end);
    if (errno != ERANGE && end != nullptr && *end == '\0' &&
        std::isfinite(d)) {
      out = d;
      return true;
    }
  }
  std::fprintf(stderr, "%s needs a finite number, got '%s'\n", what,
               v == nullptr ? "" : v);
  return false;
}

// TCP ports fit u16; "--port 70000" must be a usage error, not a wrap.
inline bool parse_port(const char* v, const char* what, std::uint16_t& out) {
  std::size_t n = 0;
  if (!parse_count(v, what, n)) return false;
  if (n > 65535) {
    std::fprintf(stderr, "%s must be <= 65535, got '%s'\n", what, v);
    return false;
  }
  out = static_cast<std::uint16_t>(n);
  return true;
}

}  // namespace nbuf::cli
