/**
 * @file
 * Property-based sweeps over the whole modeling stack: monotonicity
 * and invariant checks across densities, degrees, designs, and GEMM
 * shapes. These pin down the *shapes* the paper's figures rely on
 * rather than single data points.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "accel/harness.hh"
#include "accel/highlight.hh"
#include "common/random.hh"
#include "core/evaluator.hh"
#include "dnn/resnet50.hh"
#include "microsim/simulator.hh"
#include "model/density.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

namespace highlight
{
namespace
{

GemmWorkload
workloadFor(const OperandSparsity &a, const OperandSparsity &b)
{
    GemmWorkload w;
    w.name = "prop";
    w.m = w.k = w.n = 1024;
    w.a = a;
    w.b = b;
    return w;
}

TEST(Property, HighlightEdpMonotoneInADensity)
{
    // Sparser supported A never increases HighLight's EDP (fixed B):
    // the foundation of Fig 13's A-axis.
    const HighLightAccel hl;
    const auto degrees = enumerateDegrees(highlightWeightSupport());
    double prev_edp = 1e300;
    for (const auto &deg : degrees) {
        const auto r = hl.evaluate(workloadFor(
            OperandSparsity::structured(deg.spec),
            OperandSparsity::unstructured(0.5)));
        ASSERT_TRUE(r.supported) << deg.spec.str();
        EXPECT_LE(r.edp(), prev_edp * 1.0001) << deg.spec.str();
        prev_edp = r.edp();
    }
}

TEST(Property, HighlightEnergyMonotoneInBDensity)
{
    // Denser B never costs less energy (gating + compression savings
    // shrink as B fills in).
    const HighLightAccel hl;
    const auto spec = chooseSpecForDensity(highlightWeightSupport(),
                                           0.5);
    double prev = 0.0;
    for (double db : {0.1, 0.25, 0.4, 0.5, 0.6, 0.74, 0.8, 0.9, 1.0}) {
        const auto r = hl.evaluate(workloadFor(
            OperandSparsity::structured(spec),
            db < 1.0 ? OperandSparsity::unstructured(db)
                     : OperandSparsity::dense()));
        EXPECT_GE(r.totalEnergyPj(), prev) << "dB=" << db;
        prev = r.totalEnergyPj();
    }
}

TEST(Property, UtilizationBounded)
{
    for (double d : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
        for (int width : {8, 16, 32}) {
            const double u = unstructuredUtilization(d, width, 64);
            EXPECT_GT(u, 0.0);
            EXPECT_LE(u, 1.0 + 1e-12);
        }
    }
}

TEST(Property, EvaluateBestNeverWorseThanDirect)
{
    const Evaluator ev;
    for (const Accelerator *d : ev.designs()) {
        for (const auto &w : syntheticSuite()) {
            if (!d->supports(w))
                continue;
            const auto direct = d->evaluate(w);
            const auto best = evaluateBest(*d, w);
            EXPECT_LE(best.edp(), direct.edp() * 1.0001)
                << d->name() << " " << w.name;
        }
    }
}

TEST(Property, AllSupportedResultsWellFormed)
{
    const Evaluator ev;
    for (const Accelerator *d : ev.designs()) {
        for (const auto &w : syntheticSuite()) {
            const auto r = evaluateBest(*d, w);
            if (!r.supported)
                continue;
            EXPECT_GT(r.cycles, 0.0) << d->name() << " " << w.name;
            EXPECT_GT(r.totalEnergyPj(), 0.0);
            for (const auto &e : r.energy_pj)
                EXPECT_GE(e.value, 0.0)
                    << d->name() << " " << w.name << " " << e.name;
            // No design beats the ideal MAC-array bound on effectual
            // work alone by more than balance slack allows.
            const double dense_macs = static_cast<double>(w.m) *
                                      static_cast<double>(w.k) *
                                      static_cast<double>(w.n);
            const double ideal =
                dense_macs * w.a.density * w.b.density / 1024.0;
            EXPECT_GE(r.cycles, ideal * 0.99)
                << d->name() << " " << w.name;
        }
    }
}

TEST(Property, UnstructuredSparsifyDensityExact)
{
    Rng rng(1);
    const auto dense =
        randomDense(TensorShape({{"M", 20}, {"K", 50}}), rng);
    for (double s : {0.0, 0.1, 0.25, 0.5, 0.73, 0.9, 1.0}) {
        const auto t = unstructuredSparsify(dense, s);
        EXPECT_NEAR(t.sparsity(), s, 1.0 / 1000.0) << s;
    }
}

TEST(Property, ChooseSpecDensityAtLeastTarget)
{
    for (double target = 0.25; target <= 1.0; target += 0.05) {
        const auto spec =
            chooseSpecForDensity(highlightWeightSupport(), target);
        EXPECT_GE(spec.density(), target - 1e-9) << target;
    }
}

TEST(Property, DegreeAlgebraMatchesSparsifiedTensors)
{
    // For every supported degree: algebraic density == measured
    // density of a sparsified dense tensor, exactly.
    Rng rng(2);
    for (const auto &deg : enumerateDegrees(highlightWeightSupport())) {
        const auto dense = randomDense(
            TensorShape({{"M", 2}, {"K", deg.spec.totalSpan() * 2}}),
            rng);
        EXPECT_NEAR(hssSparsify(dense, deg.spec).density(), deg.density,
                    1e-12)
            << deg.spec.str();
    }
}

/** Micro-sim correctness across a grid of GEMM shapes. */
class SimShapeSweep
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::int64_t>>
{
};

TEST_P(SimShapeSweep, ExactAcrossShapes)
{
    const auto [m, kgroups, n] = GetParam();
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    const std::int64_t k = spec.totalSpan() * kgroups;
    Rng rng(static_cast<std::uint64_t>(m * 100 + kgroups * 10 + n));
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomUnstructured(
        TensorShape({{"K", k}, {"N", n}}), 0.4, rng);
    MicrosimConfig cfg;
    cfg.compress_b = (m + n) % 2 == 0; // alternate modes
    const auto r = HighlightSimulator(cfg).run(a, spec, b);
    EXPECT_LT(r.output.maxAbsDiff(referenceGemm(a, b)), 1e-3);
    EXPECT_EQ(r.stats.cycles, m * kgroups * n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimShapeSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 3, 7),
                       ::testing::Values<std::int64_t>(1, 4),
                       ::testing::Values<std::int64_t>(1, 6, 13)));

TEST(Property, StructuredAlwaysBalanced)
{
    // Structured operands: every PE performs identical mux-select
    // counts (perfect balance, the core HSS hardware claim).
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(9);
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", 2}, {"K", 64}}), rng), spec);
    const auto b = randomDense(TensorShape({{"K", 64}, {"N", 4}}), rng);
    const auto r = HighlightSimulator().run(a, spec, b);
    // Both PEs run every cycle: selects = cycles * PEs * lanes.
    EXPECT_EQ(r.stats.pe.mux_selects, r.stats.cycles * 2 * 2);
}

TEST(Property, DnnSuiteEnergyAdditive)
{
    // Network totals equal the sum of the per-layer results.
    const Evaluator ev;
    const auto model = resnet50Model();
    const auto r = ev.runDnn(model, DnnName::ResNet50,
                             {"HighLight", PruningApproach::Hss, 0.5});
    ASSERT_TRUE(r.supported);
    double cycles = 0.0, energy = 0.0;
    for (const auto &layer : r.per_layer) {
        cycles += layer.cycles;
        energy += layer.totalEnergyPj();
    }
    EXPECT_NEAR(cycles, r.total_cycles, 1e-6 * cycles);
    EXPECT_NEAR(energy, r.total_energy_pj, 1e-6 * energy);
}

} // namespace
} // namespace highlight
