// Small environment-variable parsing helpers behind the bench-harness knobs
// (VTP_FULL, VTP_BENCH_THREADS, VTP_BENCH_JSON, VTP_BENCH_REQUIRE_CLEAN).
// Header-only, like core/config.h.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <string>

namespace vtp::core {

/// Integer-valued variable; `fallback` when unset or unparsable. Strict:
/// trailing garbage ("42abc", "42 "), empty values, and anything outside
/// int's range all fall back rather than being silently truncated (strtol
/// clamps to LONG_MIN/LONG_MAX on overflow, and the old static_cast<int>
/// then wrapped to an arbitrary value).
inline int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(env, &end, 10);
  if (end == nullptr || end == env || *end != '\0') return fallback;
  if (errno == ERANGE || value < INT_MIN || value > INT_MAX) return fallback;
  return static_cast<int>(value);
}

/// Boolean flag; true when set to "1", "true", or "on".
inline bool EnvFlag(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  const std::string v(env);
  return v == "1" || v == "true" || v == "on";
}

/// String-valued variable; `fallback` when unset.
inline std::string EnvString(const char* name, const char* fallback) {
  const char* env = std::getenv(name);
  return env == nullptr ? fallback : env;
}

}  // namespace vtp::core
