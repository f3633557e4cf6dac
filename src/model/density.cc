#include "model/density.hh"

#include <cmath>
#include <cstring>
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

namespace
{

/** One slot of unstructuredUtilization's per-thread memo. */
struct UtilizationSlot
{
    std::uint64_t density_bits;
    int lane_width; ///< 0 marks an empty slot (threads start zeroed).
    int sample_block;
    double util;
};

constexpr int kUtilizationSlotBits = 6; ///< 64 slots.

/** The balance model itself: one binomialPmfs pass, summed in k order. */
double
balanceUtilization(double density, int lane_width, int sample_block)
{
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

} // namespace

double
unstructuredUtilization(double density, int lane_width, int sample_block)
{
    if (lane_width < 1 || sample_block < 1)
        fatal("unstructuredUtilization: bad geometry");
    if (!(density >= 0.0 && density <= 1.0))
        fatal(msgOf("unstructuredUtilization: density ", density));
    if (density == 0.0)
        return 1.0; // no work at all: vacuous full utilization
    // A direct-mapped per-thread memo on the exact key. The model is a
    // pure function of it, so a hit returns the bits a recomputation
    // would; no lock, and no allocation.
    thread_local UtilizationSlot memo[1 << kUtilizationSlotBits];
    std::uint64_t bits = 0;
    std::memcpy(&bits, &density, sizeof(bits));
    std::uint64_t h = (bits ^ static_cast<std::uint64_t>(lane_width)) *
                      0x9e3779b97f4a7c15ULL;
    h = (h ^ static_cast<std::uint64_t>(sample_block)) *
        0x9e3779b97f4a7c15ULL;
    UtilizationSlot &slot = memo[h >> (64 - kUtilizationSlotBits)];
    if (slot.density_bits != bits || slot.lane_width != lane_width ||
        slot.sample_block != sample_block) {
        slot = {bits, lane_width, sample_block,
                balanceUtilization(density, lane_width, sample_block)};
    }
    return slot.util;
}

double
hssDensity(const HssSpec &spec)
{
    return spec.density();
}

} // namespace highlight
