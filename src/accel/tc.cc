#include "accel/tc.hh"

namespace highlight
{

TcLike::TcLike() : Accelerator(tcArch()) {}

bool
TcLike::supports(const GemmWorkload &) const
{
    // A dense design produces correct results for any operand content;
    // it simply multiplies the zeros.
    return true;
}

EvalResult
TcLike::evaluate(const GemmWorkload &w) const
{
    TrafficParams p;
    p.m = w.m;
    p.k = w.k;
    p.n = w.n;
    // Everything dense: full storage, full time, every lane slot burns
    // full MAC energy regardless of operand zeros.
    p.time_fraction = 1.0;
    p.utilization = 1.0;
    p.effectual_mac_fraction = 1.0;
    p.gate_ineffectual = false;

    EvalResult r = evaluateTraffic(arch_, lib_, p);
    r.workload = w.name;
    return r;
}

std::vector<BreakdownEntry>
TcLike::areaBreakdown() const
{
    return baseAreaBreakdown();
}

} // namespace highlight
