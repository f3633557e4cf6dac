/**
 * @file
 * Unit tests for the analytical model: density/balance models (and
 * that their per-thread memo never shows in a result), EvalResult
 * arithmetic, and the traffic engine's invariants.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "accel/workload.hh"
#include "arch/arch_spec.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "model/density.hh"
#include "model/engine.hh"
#include "model/result.hh"
#include "runtime/thread_pool.hh"

namespace highlight
{
namespace
{

TEST(Density, BlockNonEmptyProbBounds)
{
    EXPECT_DOUBLE_EQ(blockNonEmptyProb(0.0, 8), 0.0);
    EXPECT_DOUBLE_EQ(blockNonEmptyProb(1.0, 8), 1.0);
    EXPECT_NEAR(blockNonEmptyProb(0.5, 1), 0.5, 1e-12);
    EXPECT_NEAR(blockNonEmptyProb(0.5, 2), 0.75, 1e-12);
}

TEST(Density, UtilizationPerfectAtFullDensity)
{
    EXPECT_NEAR(unstructuredUtilization(1.0, 32, 128), 1.0, 1e-9);
}

TEST(Density, UtilizationDegradesAtPartialDensity)
{
    const double u50 = unstructuredUtilization(0.5, 32, 128);
    EXPECT_LT(u50, 1.0);
    EXPECT_GT(u50, 0.5);
}

TEST(Density, UtilizationHandsOffAtZeroDensity)
{
    EXPECT_DOUBLE_EQ(unstructuredUtilization(0.0, 32, 128), 1.0);
}

TEST(Density, UtilizationRejectsBadDensity)
{
    // Each is checked before the per-thread memo is read, so a second
    // call is rejected too: the memo never stored the first.
    for (int round = 0; round < 2; ++round) {
        EXPECT_THROW(unstructuredUtilization(1.5, 32, 64), FatalError);
        EXPECT_THROW(unstructuredUtilization(-0.1, 32, 64), FatalError);
        EXPECT_THROW(unstructuredUtilization(std::nan(""), 32, 64),
                     FatalError);
    }
    EXPECT_THROW(OperandSparsity::unstructured(std::nan("")), FatalError);
}

TEST(Density, UtilizationHandComputedSmallCase)
{
    // 2 trials, p = 0.5, lane width 2: occ in {0,1,2} with probs
    // {1/4, 1/2, 1/4}; slots ceil(occ/2)*2 in {0, 2, 2}.
    // E[occ] = 1; E[slots] = 0.25*0 + 0.5*2 + 0.25*2 = 1.5.
    EXPECT_NEAR(unstructuredUtilization(0.5, 2, 2), 1.0 / 1.5, 1e-9);
}

/**
 * Reference for the balance model, written as two separate passes:
 * E[occ], then E[ceil(occ/W)*W], each summed in k order from
 * binomialPmf.
 */
double
twoPassUtilization(double density, int lane_width, int sample_block)
{
    if (density <= 0.0)
        return 1.0;
    double e_occ = 0.0;
    for (int k = 0; k <= sample_block; ++k)
        e_occ += binomialPmf(sample_block, k, density) *
                 static_cast<double>(k);
    double e_slots = 0.0;
    for (int k = 0; k <= sample_block; ++k) {
        const double slots =
            k == 0 ? 0.0
                   : static_cast<double>((k + lane_width - 1) /
                                         lane_width) *
                         static_cast<double>(lane_width);
        e_slots += binomialPmf(sample_block, k, density) * slots;
    }
    if (e_slots <= 0.0)
        return 1.0;
    return e_occ / e_slots;
}

/** One (density, lane width, block) point of the balance model. */
struct UtilizationCase
{
    double density;
    int lanes;
    int block;
};

/**
 * 2001 densities in [0, 1] at every (lanes, block) pair, interleaved:
 * consecutive cases share a density but not a geometry, so they land
 * in different memo slots and, with 96k keys for 64 slots, evict one
 * another constantly.
 */
const std::vector<UtilizationCase> &
utilizationCases()
{
    static const std::vector<UtilizationCase> cases = [] {
        std::vector<UtilizationCase> out;
        for (int i = 0; i <= 2000; ++i) {
            for (int lanes : {1, 2, 3, 8, 16, 32}) {
                for (int block : {1, 2, 3, 8, 64, 100, 128, 257})
                    out.push_back({i / 2000.0, lanes, block});
            }
        }
        return out;
    }();
    return cases;
}

/** twoPassUtilization of every case, computed once per process. */
const std::vector<double> &
twoPassUtilizations()
{
    static const std::vector<double> want = [] {
        std::vector<double> out;
        for (const UtilizationCase &c : utilizationCases())
            out.push_back(twoPassUtilization(c.density, c.lanes, c.block));
        return out;
    }();
    return want;
}

double
utilizationOf(const UtilizationCase &c)
{
    return unstructuredUtilization(c.density, c.lanes, c.block);
}

/** Compare one computed value with the reference; reports the first 5. */
void
expectSameBits(double got, double want, const UtilizationCase &c,
               long long *mismatches)
{
    if (std::memcmp(&got, &want, sizeof(got)) == 0)
        return;
    if (++*mismatches <= 5)
        ADD_FAILURE() << "lanes=" << c.lanes << " block=" << c.block
                      << " d=" << c.density << ": " << got << " vs "
                      << want;
}

TEST(Density, UtilizationMatchesTwoPassFormulaBitForBit)
{
    // Every value is computed twice, in forward and then in reverse
    // order, so it is read both fresh and after its slot was reused:
    // the memo and the lgamma table must not show in any bit.
    const auto &cases = utilizationCases();
    const auto &want = twoPassUtilizations();
    long long checked = 0, mismatches = 0;
    for (std::size_t i = 0; i < cases.size(); ++i, ++checked) {
        expectSameBits(utilizationOf(cases[i]), want[i], cases[i],
                       &mismatches);
    }
    for (std::size_t i = cases.size(); i-- > 0; ++checked) {
        expectSameBits(utilizationOf(cases[i]), want[i], cases[i],
                       &mismatches);
    }
    EXPECT_EQ(mismatches, 0) << "of " << checked << " values";
    EXPECT_EQ(checked, 2LL * 2001 * 6 * 8);
}

TEST(Density, UtilizationIsBitIdenticalUnderFourThreads)
{
    // Four pool workers, each with its own memo and lgamma table, race
    // through the cases in the pool's claiming order; every value must
    // still match the serial two-pass reference.
    const auto &cases = utilizationCases();
    const auto &want = twoPassUtilizations();
    ThreadPool pool(4);
    std::vector<double> got(cases.size());
    pool.parallelFor(cases.size(), [&](std::size_t i) {
        got[i] = utilizationOf(cases[i]);
    });
    long long mismatches = 0;
    for (std::size_t i = 0; i < cases.size(); ++i)
        expectSameBits(got[i], want[i], cases[i], &mismatches);
    EXPECT_EQ(mismatches, 0) << "of " << cases.size() << " values";
}

TEST(Result, EnergyAccumulation)
{
    EvalResult r;
    r.addEnergy("mac", 10.0);
    r.addEnergy("mac", 5.0);
    r.addEnergy("dram", 100.0);
    EXPECT_DOUBLE_EQ(r.totalEnergyPj(), 115.0);
    EXPECT_EQ(r.energy_pj.size(), 2u);
}

TEST(Result, EdpArithmetic)
{
    EvalResult r;
    r.cycles = 1e6;
    r.clock_mhz = 1000.0; // 1 GHz -> 1 ms... no, 1e6 cycles = 1 ms? 1e6/1e9 = 1e-3 s
    r.addEnergy("mac", 1e9); // 1 mJ
    EXPECT_NEAR(r.delaySeconds(), 1e-3, 1e-12);
    EXPECT_NEAR(r.edp(), 1e9 * 1e-12 * 1e-3, 1e-18);
    EXPECT_NEAR(r.ed2(), 1e9 * 1e-12 * 1e-6, 1e-21);
}

TEST(Result, NormalizeTo)
{
    EvalResult a, b;
    a.cycles = 100.0;
    b.cycles = 200.0;
    a.addEnergy("mac", 10.0);
    b.addEnergy("mac", 40.0);
    const auto n = normalizeTo(a, b);
    EXPECT_DOUBLE_EQ(n.latency, 0.5);
    EXPECT_DOUBLE_EQ(n.energy, 0.25);
    EXPECT_DOUBLE_EQ(n.edp, 0.125);
}

TEST(Result, NormalizeRejectsUnsupported)
{
    EvalResult a, b;
    a.supported = false;
    b.cycles = 1.0;
    EXPECT_THROW(normalizeTo(a, b), FatalError);
}

TrafficParams
denseParams(std::int64_t dim = 1024)
{
    TrafficParams p;
    p.m = p.k = p.n = dim;
    return p;
}

TEST(Engine, DenseCyclesMatchMacArray)
{
    const ComponentLibrary lib;
    const auto r = evaluateTraffic(tcArch(), lib, denseParams());
    // 1024^3 MACs over 1024 lanes = 1M cycles.
    EXPECT_DOUBLE_EQ(r.cycles, 1024.0 * 1024.0);
}

TEST(Engine, TimeFractionScalesCycles)
{
    const ComponentLibrary lib;
    auto p = denseParams();
    p.time_fraction = 0.25;
    const auto r = evaluateTraffic(tcArch(), lib, p);
    EXPECT_DOUBLE_EQ(r.cycles, 1024.0 * 1024.0 / 4.0);
}

TEST(Engine, UtilizationInflatesCycles)
{
    const ComponentLibrary lib;
    auto p = denseParams();
    p.utilization = 0.5;
    const auto r = evaluateTraffic(tcArch(), lib, p);
    EXPECT_DOUBLE_EQ(r.cycles, 2.0 * 1024.0 * 1024.0);
}

TEST(Engine, CompressionReducesDramEnergy)
{
    const ComponentLibrary lib;
    auto dense = denseParams();
    auto sparse = denseParams();
    sparse.a_stored_density = 0.25;
    sparse.b_stored_density = 0.5;
    const auto rd = evaluateTraffic(stcArch(), lib, dense);
    const auto rs = evaluateTraffic(stcArch(), lib, sparse);
    EXPECT_LT(breakdownShare(rs.energy_pj, "dram") *
                  rs.totalEnergyPj(),
              breakdownShare(rd.energy_pj, "dram") *
                  rd.totalEnergyPj());
}

TEST(Engine, GatingCutsMacEnergy)
{
    const ComponentLibrary lib;
    auto gated = denseParams();
    gated.effectual_mac_fraction = 0.25;
    gated.gate_ineffectual = true;
    auto ungated = denseParams();
    ungated.effectual_mac_fraction = 0.25;
    ungated.gate_ineffectual = false;
    const auto rg = evaluateTraffic(tcArch(), lib, gated);
    const auto ru = evaluateTraffic(tcArch(), lib, ungated);
    auto mac_pj = [](const EvalResult &r) {
        return breakdownShare(r.energy_pj, "mac") * r.totalEnergyPj();
    };
    EXPECT_LT(mac_pj(rg), mac_pj(ru));
}

TEST(Engine, OuterProductInflatesRfTraffic)
{
    const ComponentLibrary lib;
    auto inner = denseParams();
    auto outer = denseParams();
    outer.accum = AccumStyle::OuterProduct;
    const auto ri = evaluateTraffic(dstcArch(), lib, inner);
    const auto ro = evaluateTraffic(dstcArch(), lib, outer);
    auto rf_pj = [](const EvalResult &r) {
        return breakdownShare(r.energy_pj, "rf") * r.totalEnergyPj();
    };
    // With spatial_k = 32, outer-product psum traffic is ~32x higher.
    EXPECT_GT(rf_pj(ro) / rf_pj(ri), 10.0);
}

TEST(Engine, MetadataEnergyOnlyWhenConfigured)
{
    const ComponentLibrary lib;
    const auto r0 = evaluateTraffic(stcArch(), lib, denseParams());
    EXPECT_DOUBLE_EQ(breakdownShare(r0.energy_pj, "metadata"), 0.0);
    auto p = denseParams();
    p.a_meta_bits_per_word = 2.0;
    const auto r1 = evaluateTraffic(stcArch(), lib, p);
    EXPECT_GT(breakdownShare(r1.energy_pj, "metadata"), 0.0);
}

TEST(Engine, SafEnergyScalesWithSteps)
{
    const ComponentLibrary lib;
    auto p = denseParams();
    p.mux_pj_per_step = 10.0;
    const auto r = evaluateTraffic(tcArch(), lib, p);
    const double saf =
        breakdownShare(r.energy_pj, "saf") * r.totalEnergyPj();
    EXPECT_NEAR(saf, 10.0 * r.cycles, saf * 0.01);
}

TEST(Engine, RejectsBadParams)
{
    const ComponentLibrary lib;
    auto p = denseParams();
    p.m = 0;
    EXPECT_THROW(evaluateTraffic(tcArch(), lib, p), FatalError);
    auto q = denseParams();
    q.time_fraction = 0.0;
    EXPECT_THROW(evaluateTraffic(tcArch(), lib, q), FatalError);
    // NaN fails every comparison, so only `!(x > 0)` rejects it; it
    // would otherwise come out as NaN cycles.
    for (double bad : {-1.0, 0.0, std::nan("")}) {
        auto t = denseParams();
        t.time_fraction = bad;
        EXPECT_THROW(evaluateTraffic(tcArch(), lib, t), FatalError);
        auto u = denseParams();
        u.utilization = bad;
        EXPECT_THROW(evaluateTraffic(tcArch(), lib, u), FatalError);
    }
}

TEST(Engine, EnergyBreakdownAllPositive)
{
    const ComponentLibrary lib;
    const auto r = evaluateTraffic(tcArch(), lib, denseParams(256));
    for (const auto &e : r.energy_pj)
        EXPECT_GE(e.value, 0.0) << e.name;
    EXPECT_GT(r.totalEnergyPj(), 0.0);
}

} // namespace
} // namespace highlight
