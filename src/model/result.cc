#include "model/result.hh"

#include "common/logging.hh"

namespace highlight
{

void
EvalResult::addEnergy(const std::string &component, double pj)
{
    for (auto &entry : energy_pj) {
        if (entry.name == component) {
            entry.value += pj;
            return;
        }
    }
    energy_pj.push_back({component, pj});
}

double
EvalResult::totalEnergyPj() const
{
    return breakdownTotal(energy_pj);
}

double
EvalResult::delaySeconds() const
{
    return cycles / (clock_mhz * 1e6);
}

double
EvalResult::edp() const
{
    return totalEnergyPj() * 1e-12 * delaySeconds();
}

double
EvalResult::ed2() const
{
    const double d = delaySeconds();
    return totalEnergyPj() * 1e-12 * d * d;
}

NormalizedMetrics
normalizeTo(const EvalResult &result, const EvalResult &baseline)
{
    if (!result.supported || !baseline.supported)
        fatal("normalizeTo: cannot normalize unsupported results");
    NormalizedMetrics n;
    n.latency = result.cycles / baseline.cycles;
    n.energy = result.totalEnergyPj() / baseline.totalEnergyPj();
    n.edp = result.edp() / baseline.edp();
    n.ed2 = result.ed2() / baseline.ed2();
    return n;
}

} // namespace highlight
