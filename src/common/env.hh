/**
 * @file
 * Strict parsing of numeric environment variables.
 *
 * The runtime knob (HIGHLIGHT_THREADS) must reject garbage loudly
 * instead of mis-parsing it: std::atoi("4x") silently yields 4 and
 * strtoull("-1") wraps to 2^64-1, both of which turn a typo into a
 * very wrong configuration. Numeric knobs go through
 * positiveIntFromEnv(), which accepts decimal digits only — no sign,
 * whitespace, trailing junk or overflow — and a set value it rejects
 * is fatal.
 */

#ifndef HIGHLIGHT_COMMON_ENV_HH
#define HIGHLIGHT_COMMON_ENV_HH

#include <string>

namespace highlight
{

/**
 * Read environment variable `name` as a strictly positive integer in
 * [1, max_value]. Returns `fallback` when the variable is unset. A set
 * value that is not all decimal digits (the empty string, a sign,
 * whitespace, trailing junk like "4x"), zero, or above `max_value` is
 * fatal (FatalError naming the variable and the value).
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
