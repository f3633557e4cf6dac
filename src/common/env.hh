/**
 * @file
 * Strict parsing of numeric environment variables.
 *
 * The runtime knob (HIGHLIGHT_THREADS) must reject garbage loudly
 * instead of mis-parsing it: std::atoi("4x") silently yields 4 and
 * strtoull("-1") wraps to 2^64-1, both of which turn a typo into a
 * very wrong configuration. Numeric knobs go through
 * parsePositiveInt(), which accepts decimal digits only — no sign,
 * whitespace, trailing junk or overflow — so the callers can warn and
 * fall back to their defaults on anything else.
 */

#ifndef HIGHLIGHT_COMMON_ENV_HH
#define HIGHLIGHT_COMMON_ENV_HH

#include <string>

namespace highlight
{

/**
 * Parse a strictly positive decimal integer. Accepts digits only
 * (rejects empty strings, signs, whitespace, trailing junk like
 * "4x", zero, and values above `max_value`). Returns false — leaving
 * *out untouched — on anything invalid.
 */
bool parsePositiveInt(const char *s, long long max_value,
                      long long *out);

/**
 * Read environment variable `name` as a strictly positive integer in
 * [1, max_value]. Returns `fallback` when the variable is unset;
 * warns (naming the variable and the rejected value) and returns
 * `fallback` when it is set to anything parsePositiveInt rejects.
 */
long long positiveIntFromEnv(const char *name, long long max_value,
                             long long fallback);

/**
 * Read environment variable `name` as a string; "" when unset. The
 * returned copy is immune to a later setenv() invalidating the
 * getenv() pointer, which is why raw std::getenv() elsewhere in the
 * tree is a determinism-lint violation (rule no-raw-env): every env
 * read goes through this file, where the single lint-allowed getenv
 * lives.
 */
std::string stringFromEnv(const char *name);

} // namespace highlight

#endif // HIGHLIGHT_COMMON_ENV_HH
