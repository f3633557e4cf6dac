/**
 * @file
 * Writer for the versioned bench summary (the BENCH_microsim.json
 * ledger that CI uploads to record the perf trajectory PR over PR).
 *
 * The format is byte-for-byte the `highlight-bench-v1` JSON that
 * bench_kernels has always emitted, so CI's json.tool / grep
 * validation keeps working and the checked-in ledger stays diffable.
 */

#ifndef HIGHLIGHT_IO_BENCH_IO_HH
#define HIGHLIGHT_IO_BENCH_IO_HH

#include <string>
#include <vector>

namespace highlight
{

/** One benchmark result row. */
struct BenchEntry
{
    std::string name;
    double ns_per_op = 0.0;
    double items_per_second = 0.0;
};

/**
 * Write the highlight-bench-v1 summary for `suite` to `path`
 * (truncating); false on I/O failure.
 */
bool writeBenchJson(const std::string &path, const std::string &suite,
                    const std::vector<BenchEntry> &entries);

} // namespace highlight

#endif // HIGHLIGHT_IO_BENCH_IO_HH
