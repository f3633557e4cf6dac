/**
 * @file
 * Error-reporting and status-message helpers.
 *
 * Follows the gem5 convention: fatal() is for user errors (bad
 * configuration, unsupported workload) and exits cleanly; panic() is for
 * internal invariant violations (library bugs) and aborts; warn() is
 * the non-fatal status channel.
 */

#ifndef HIGHLIGHT_COMMON_LOGGING_HH
#define HIGHLIGHT_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace highlight
{

/** Thrown by fatal(): the caller supplied an invalid configuration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Thrown by panic(): an internal invariant of the library was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/**
 * Report an unrecoverable user error (bad configuration, unsupported
 * workload). Throws FatalError so library users and tests can catch it.
 *
 * @param msg Description of what the user did wrong.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal invariant violation (a bug in this library, not a
 * user error). Throws PanicError.
 *
 * @param msg Description of the violated invariant.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Emit a non-fatal warning to stderr. Used when a model falls back to an
 * approximation that might surprise the user.
 */
void warn(const std::string &msg);

/**
 * Build a message from streamable parts, e.g.
 * fatal(msgOf("H=", h, " is not in [", lo, ",", hi, "]")).
 */
template <typename... Args>
std::string
msgOf(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

/**
 * `value` byte for byte as msgOf(value) prints it (an ostream with
 * default flags: printf's "%g", 6 significant digits, C locale), but
 * without constructing a stream. For strings built on every
 * evaluation, such as EvalResult notes.
 */
std::string formatG6(double value);

} // namespace highlight

#endif // HIGHLIGHT_COMMON_LOGGING_HH
