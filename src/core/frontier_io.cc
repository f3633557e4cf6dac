#include "core/frontier_io.hh"

#include <fstream>
#include <iomanip>

namespace highlight
{

bool
writeFrontierJson(const std::string &path,
                  const std::vector<FrontierEntry> &frontier)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << std::setprecision(17);
    out << "[\n";
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        const FrontierEntry &f = frontier[i];
        out << "  {\"model\": " << jsonQuote(f.model)
            << ", \"design\": " << jsonQuote(f.design)
            << ", \"accuracy_loss\": " << f.accuracy_loss
            << ", \"norm_edp\": " << f.norm_edp << "}"
            << (i + 1 < frontier.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return static_cast<bool>(out);
}

} // namespace highlight
