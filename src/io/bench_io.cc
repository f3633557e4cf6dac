#include "io/bench_io.hh"

#include <fstream>
#include <iomanip>

#include "io/json.hh"

namespace highlight
{

bool
writeBenchJson(const std::string &path, const std::string &suite,
               const std::vector<BenchEntry> &entries)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    if (!out)
        return false;
    out << std::setprecision(17);
    out << "{\n"
        << "  \"schema\": \"highlight-bench-v1\",\n"
        << "  \"suite\": " << jsonQuote(suite) << ",\n"
        << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &e = entries[i];
        out << "    {\"name\": " << jsonQuote(e.name)
            << ", \"ns_per_op\": " << e.ns_per_op
            << ", \"items_per_second\": " << e.items_per_second << "}"
            << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace highlight
