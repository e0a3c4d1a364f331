// Strict parsing helpers for user-facing CLI flags and environment
// variables (mgps_cli --threads, METAPROX_BENCH_* env vars).
#ifndef METAPROX_UTIL_PARSE_H_
#define METAPROX_UTIL_PARSE_H_

namespace metaprox::util {

/// Strict non-negative integer parse for user-facing count options.
/// Rejects empty strings, signs, trailing garbage and out-of-range
/// values — atoi/strtoul alone would silently turn "-1" or "max" into a
/// live configuration.
bool ParseCount(const char* text, unsigned* out);

}  // namespace metaprox::util

#endif  // METAPROX_UTIL_PARSE_H_
