#include "common/logging.hh"

#include <charconv>
#include <iostream>

namespace highlight
{

void
fatal(const std::string &msg)
{
    throw FatalError("fatal: " + msg);
}

void
panic(const std::string &msg)
{
    throw PanicError("panic: " + msg);
}

void
warn(const std::string &msg)
{
    std::cerr << "warn: " << msg << "\n";
}

std::string
formatG6(double value)
{
    // The longest "%.6g" output, "-1.23457e-308", fits with room left.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value,
                                   std::chars_format::general, 6);
    return std::string(buf, res.ptr);
}

} // namespace highlight
