/**
 * @file
 * The JSON string quoting shared by every `--json` dump and the bench
 * summary writer.
 */

#ifndef HIGHLIGHT_IO_JSON_HH
#define HIGHLIGHT_IO_JSON_HH

#include <string>

namespace highlight
{

/** A quoted JSON string (escapes backslash and double-quote). */
std::string jsonQuote(const std::string &s);

} // namespace highlight

#endif // HIGHLIGHT_IO_JSON_HH
