#include "model/density.hh"

#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"

namespace highlight
{

double
blockNonEmptyProb(double density, std::int64_t block)
{
    if (density < 0.0 || density > 1.0)
        fatal(msgOf("blockNonEmptyProb: density ", density));
    if (block < 1)
        fatal(msgOf("blockNonEmptyProb: block ", block));
    return 1.0 - std::pow(1.0 - density, static_cast<double>(block));
}

double
expectedBlockOccupancy(double density, std::int64_t block)
{
    if (density < 0.0 || density > 1.0)
        fatal(msgOf("expectedBlockOccupancy: density ", density));
    return density * static_cast<double>(block);
}

double
unstructuredUtilization(double density, int lane_width, int sample_block)
{
    if (lane_width < 1 || sample_block < 1)
        fatal("unstructuredUtilization: bad geometry");
    if (density <= 0.0)
        return 1.0; // no work at all: vacuous full utilization
    // Per-thread scratch (H2Pack's thread_buf idiom): pool workers call
    // this concurrently, and after a thread's first call no call
    // allocates.
    thread_local std::vector<double> pmf;
    binomialPmfs(sample_block, density, pmf);
    // E[occ] and E[ceil(occ / lanes) * lanes], summed in k order.
    double e_occ = 0.0;
    double e_slots = 0.0;
    for (int k = 0; k <= sample_block; ++k) {
        const int groups = (k + lane_width - 1) / lane_width;
        e_occ += pmf[k] * static_cast<double>(k);
        e_slots += pmf[k] * (static_cast<double>(groups) *
                             static_cast<double>(lane_width));
    }
    if (e_slots <= 0.0)
        return 1.0;
    return e_occ / e_slots;
}

double
hssDensity(const HssSpec &spec)
{
    return spec.density();
}

} // namespace highlight
