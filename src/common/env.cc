#include "common/env.hh"

#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace highlight
{

namespace
{

/**
 * Parse a strictly positive decimal integer of at most `max_value`:
 * digits only. Returns false, leaving *out untouched, on anything
 * else.
 */
bool
parsePositiveInt(const char *s, long long max_value, long long *out)
{
    if (s == nullptr || *s == '\0')
        return false;
    long long v = 0;
    for (const char *p = s; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return false; // sign, whitespace or trailing junk
        const int digit = *p - '0';
        if (v > (max_value - digit) / 10)
            return false; // would exceed max_value
        v = v * 10 + digit;
    }
    if (v < 1)
        return false;
    *out = v;
    return true;
}

} // namespace

long long
positiveIntFromEnv(const char *name, long long max_value,
                   long long fallback)
{
    const char *s = std::getenv(name);
    if (s == nullptr)
        return fallback;
    long long v = 0;
    if (!parsePositiveInt(s, max_value, &v))
        fatal(msgOf(name, "=", s, " is not an integer from 1 to ",
                    max_value));
    return v;
}

std::string
stringFromEnv(const char *name)
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): getenv is only unsafe
    // against a concurrent setenv; the library never calls setenv.
    const char *s = std::getenv(name);
    return s == nullptr ? std::string() : std::string(s);
}

} // namespace highlight
