// printf-style appending to a std::string, shared by the CLI renderers
// (net/render.cpp) and the metrics exporters (service/metrics.cpp).
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>

namespace backlog::util {

/// Append printf-formatted text to `out`; one call appends at most 511
/// bytes.
inline void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

inline void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min<std::size_t>(n, sizeof buf - 1));
}

}  // namespace backlog::util
