/**
 * @file
 * Pareto-frontier dumps: the fig15 `--frontier-json` format.
 *
 * A JSON array of {model, design, accuracy_loss, norm_edp} objects
 * with doubles printed at max_digits10, so a byte-compare of two dumps
 * is a bit-identity check on the values.
 */

#ifndef HIGHLIGHT_CORE_FRONTIER_IO_HH
#define HIGHLIGHT_CORE_FRONTIER_IO_HH

#include <string>
#include <vector>

#include "io/json.hh"

namespace highlight
{

/** One frontier member of a fig15-style sweep. */
struct FrontierEntry
{
    std::string model;
    std::string design;
    double accuracy_loss = 0.0;
    double norm_edp = 0.0;
};

/**
 * Dump entries as a JSON array (full-precision doubles: byte-equal
 * dumps iff bit-equal values). False when the file cannot be written.
 */
bool writeFrontierJson(const std::string &path,
                       const std::vector<FrontierEntry> &frontier);

} // namespace highlight

#endif // HIGHLIGHT_CORE_FRONTIER_IO_HH
