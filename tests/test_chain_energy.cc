/**
 * @file
 * Tests for the micro-sim energy adapter, which prices the simulator's
 * measured activity with the analytical component library.
 */

#include <gtest/gtest.h>

#include "accel/highlight.hh"
#include "common/random.hh"
#include "microsim/energy_adapter.hh"
#include "microsim/simulator.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

namespace highlight
{
namespace
{

/** A 32x32 two-rank HSS A against a dense 32x6 B. */
struct AdapterFixture
{
    HssSpec spec{{GhPattern(2, 4), GhPattern(2, 4)}};
    DenseTensor a, b;

    AdapterFixture()
    {
        Rng rng(21);
        const std::int64_t m = 32, k = 32, n = 6;
        a = hssSparsify(
            randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
        b = randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
    }
};

TEST(EnergyAdapter, AllComponentsPresentAndPositive)
{
    const AdapterFixture f;
    const auto r = HighlightSimulator().run(f.a, f.spec, f.b);
    const ComponentLibrary lib;
    const auto energy = microsimEnergy(r.stats, f.spec, lib);
    for (const char *name : {"mac", "glb", "rf", "saf", "reg"}) {
        EXPECT_GT(breakdownShare(energy, name), 0.0) << name;
    }
}

TEST(EnergyAdapter, MacEnergyMatchesAnalyticalExactly)
{
    // Effectual MAC counts are deterministic for dense B: the
    // simulator-measured MAC energy must equal the analytical model's
    // effectual-MAC term exactly (same component library).
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(33);
    const std::int64_t m = 4, k = 64, n = 8;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomDense(TensorShape({{"K", k}, {"N", n}}), rng);

    const ComponentLibrary lib;
    const auto sim = HighlightSimulator().run(a, spec, b);
    const auto energy = microsimEnergy(sim.stats, spec, lib);

    const double measured_mac_pj =
        breakdownShare(energy, "mac") * breakdownTotal(energy);
    const double analytical_effectual =
        static_cast<double>(a.countNonzeros()) *
        static_cast<double>(n) * lib.macComputePj();
    // Gated-lane energy is the only extra term; it is bounded by
    // (lane slots - effectual) * gated_pj.
    EXPECT_GE(measured_mac_pj, analytical_effectual);
    const double lane_slots =
        static_cast<double>(sim.stats.pe.mux_selects);
    EXPECT_LE(measured_mac_pj,
              analytical_effectual + lane_slots * lib.macGatedPj());
}

TEST(EnergyAdapter, GatingReducesMeasuredMacEnergy)
{
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(34);
    const std::int64_t m = 2, k = 64, n = 8;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b_dense =
        randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
    const auto b_sparse = unstructuredSparsify(b_dense, 0.6);

    const ComponentLibrary lib;
    const auto e_dense = microsimEnergy(
        HighlightSimulator().run(a, spec, b_dense).stats, spec, lib);
    const auto e_sparse = microsimEnergy(
        HighlightSimulator().run(a, spec, b_sparse).stats, spec, lib);
    const auto mac = [](const std::vector<BreakdownEntry> &e) {
        return breakdownShare(e, "mac") * breakdownTotal(e);
    };
    EXPECT_LT(mac(e_sparse), mac(e_dense));
}

TEST(EnergyAdapter, CompressedBReducesMeasuredGlbEnergy)
{
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(35);
    const std::int64_t m = 2, k = 64, n = 16;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomUnstructured(
        TensorShape({{"K", k}, {"N", n}}), 0.7, rng);

    const ComponentLibrary lib;
    MicrosimConfig comp;
    comp.compress_b = true;
    const auto e_raw = microsimEnergy(
        HighlightSimulator().run(a, spec, b).stats, spec, lib);
    const auto e_comp = microsimEnergy(
        HighlightSimulator(comp).run(a, spec, b).stats, spec, lib);
    const auto glb = [](const std::vector<BreakdownEntry> &e) {
        return breakdownShare(e, "glb") * breakdownTotal(e);
    };
    EXPECT_LT(glb(e_comp), glb(e_raw));
}

} // namespace
} // namespace highlight
