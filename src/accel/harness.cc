#include "accel/harness.hh"

#include "accel/dstc.hh"
#include "accel/highlight.hh"
#include "accel/s2ta.hh"
#include "accel/stc.hh"
#include "accel/tc.hh"

namespace highlight
{

EvalResult
evaluateBest(const Accelerator &accel, const GemmWorkload &w)
{
    const GemmWorkload swapped = w.swapped();
    const bool direct_ok = accel.supports(w);
    const bool swapped_ok = accel.supports(swapped);

    if (!direct_ok && !swapped_ok)
        return accel.evaluate(w); // carries the unsupported note

    if (direct_ok && !swapped_ok)
        return accel.evaluate(w);

    if (!direct_ok && swapped_ok) {
        EvalResult r = accel.evaluate(swapped);
        r.workload = w.name;
        r.note += " [operands swapped]";
        return r;
    }

    EvalResult direct = accel.evaluate(w);
    EvalResult other = accel.evaluate(swapped);
    if (other.edp() < direct.edp()) {
        other.workload = w.name;
        other.note += " [operands swapped]";
        return other;
    }
    return direct;
}

std::vector<std::unique_ptr<Accelerator>>
standardDesigns()
{
    std::vector<std::unique_ptr<Accelerator>> designs;
    designs.push_back(std::make_unique<TcLike>());
    designs.push_back(std::make_unique<StcLike>());
    designs.push_back(std::make_unique<S2taLike>());
    designs.push_back(std::make_unique<DstcLike>());
    designs.push_back(std::make_unique<HighLightAccel>());
    return designs;
}

} // namespace highlight
