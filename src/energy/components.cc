#include "energy/components.hh"

#include <cmath>

#include "common/logging.hh"

namespace highlight
{

double
ComponentLibrary::rfAccessPj(double capacity_kb) const
{
    if (!(capacity_kb > 0.0))
        fatal(msgOf("rfAccessPj: capacity ", capacity_kb,
                    " kB is not positive"));
    return tech_.rf_base_pj * std::sqrt(capacity_kb / tech_.rf_base_kb);
}

double
ComponentLibrary::sramAccessPj(double capacity_kb) const
{
    if (!(capacity_kb > 0.0))
        fatal(msgOf("sramAccessPj: capacity ", capacity_kb,
                    " kB is not positive"));
    return tech_.sram_base_pj *
           std::sqrt(capacity_kb / tech_.sram_base_kb);
}

double
ComponentLibrary::metadataAccessPj(double capacity_kb,
                                   int field_bits) const
{
    return sramAccessPj(capacity_kb) *
           (static_cast<double>(field_bits) / tech_.word_bits);
}

double
ComponentLibrary::muxSelectPj(int h) const
{
    if (h < 1)
        fatal(msgOf("muxSelectPj: h=", h));
    // An h-to-1 mux decomposes into (h-1) 2-to-1 muxes (Fig 7(b)); the
    // select toggles a constant fraction of them, giving the ~linear-
    // in-Hmax energy tax the paper describes (Sec 5.2 takeaway).
    return tech_.mux2_select_pj * static_cast<double>(h - 1);
}

double
ComponentLibrary::sramAreaUm2(double capacity_kb) const
{
    return capacity_kb * 1024.0 * 8.0 * tech_.sram_area_um2_per_bit;
}

double
ComponentLibrary::rfAreaUm2(double capacity_kb) const
{
    return capacity_kb * 1024.0 * 8.0 * tech_.rf_area_um2_per_bit;
}

double
ComponentLibrary::regArrayAreaUm2(std::int64_t bits) const
{
    return static_cast<double>(bits) * tech_.reg_area_um2_per_bit;
}

double
ComponentLibrary::muxAreaUm2(int h) const
{
    if (h < 1)
        fatal(msgOf("muxAreaUm2: h=", h));
    return tech_.mux2_area_um2 * static_cast<double>(h - 1);
}

double
breakdownTotal(const std::vector<BreakdownEntry> &entries)
{
    double total = 0.0;
    for (const auto &e : entries)
        total += e.value;
    return total;
}

double
breakdownShare(const std::vector<BreakdownEntry> &entries,
               const std::string &name)
{
    const double total = breakdownTotal(entries);
    if (total <= 0.0)
        return 0.0;
    for (const auto &e : entries) {
        if (e.name == name)
            return e.value / total;
    }
    return 0.0;
}

} // namespace highlight
