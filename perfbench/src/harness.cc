#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

#include "trace.hh"

namespace perfbench
{

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "pareto_sweep", "gemm_matrix", "microsim_fig16"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "pareto_sweep")
        return makeParetoSweep();
    if (name == "gemm_matrix")
        return makeGemmMatrix();
    if (name == "microsim_fig16")
        return makeMicrosimFig16();
    return nullptr;
}

LoopResult
runLoop(Workload &wl, const std::string &reference, const LoopOptions &opt)
{
    LoopResult res;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    for (std::size_t i = 0;; ++i) {
        const bool traced = opt.trace && i % 2 == 1;
        const bool enough =
            res.op_ms.size() >= opt.min_ops &&
            (!opt.trace || res.traced_op_ms.size() >= opt.min_ops);
        if (enough && nowNs() >= deadline && !traced)
            break;

        bool ok = true;
        const std::int64_t cpu0 = processCpuNs();
        const std::int64_t t0 = nowNs();
        try {
            wl.runOp(traced);
        } catch (const std::exception &e) {
            std::cerr << "perfbench: op " << res.attempted
                      << " threw: " << e.what() << "\n";
            ok = false;
        }
        const double ms = nsToMs(nowNs() - t0);
        const double cpu_ms = nsToMs(processCpuNs() - cpu0);

        ++res.attempted;
        if (ok && opt.tamper)
            opt.tamper(wl);
        if (!ok || wl.lastFingerprint() != reference)
            ++res.failed;
        if (opt.between_ops)
            opt.between_ops();
        if (traced) {
            res.traced_op_ms.push_back(ms);
            res.layers.push_back(ok ? wl.lastLayers() : LayerSample{});
        } else {
            res.op_ms.push_back(ms);
            res.op_cpu_ms.push_back(cpu_ms);
        }
    }
    return res;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Golden
readGolden(const std::string &path, const std::string &workload,
           std::uint64_t seed, std::uint64_t *digest)
{
    std::ifstream in(path);
    if (!in)
        return Golden::Unreadable;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name;
        std::uint64_t s = 0, d = 0;
        if (fields >> name >> s >> std::hex >> d && name == workload &&
            s == seed) {
            *digest = d;
            return Golden::Found;
        }
    }
    return Golden::NoEntry;
}

} // namespace perfbench
