/**
 * @file
 * Functional tests for the cycle-level micro-simulator (paper Sec 6):
 * exact GEMM results across HSS degrees, cycle-count formulas, gating
 * behaviour and VFMU fetch skipping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "format/hierarchical_cp.hh"
#include "format/operand_b.hh"
#include "microsim/dsso_sim.hh"
#include "microsim/glb.hh"
#include "microsim/lane_kernel.hh"
#include "microsim/simulator.hh"
#include "microsim/vfmu.hh"
#include "runtime/thread_pool.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

namespace highlight
{
namespace
{

TEST(MicroGlb, AlignedRowFetches)
{
    MicroGlb glb({1.0f, 2.0f, 3.0f, 4.0f, 5.0f}, 4);
    EXPECT_EQ(glb.numRows(), 2); // padded to 8 words
    const auto row0 = glb.fetchRow(0);
    EXPECT_EQ(row0.size(), 4u);
    EXPECT_FLOAT_EQ(row0[0], 1.0f);
    const auto row1 = glb.fetchRow(1);
    EXPECT_FLOAT_EQ(row1[0], 5.0f);
    EXPECT_FLOAT_EQ(row1[3], 0.0f); // padding
    EXPECT_EQ(glb.stats().row_fetches, 2);
    EXPECT_EQ(glb.stats().words_read, 8);
    EXPECT_THROW(glb.fetchRow(2), PanicError);
}

TEST(MicroGlb, BothConstructorsRejectTheSameMalformedInputs)
{
    // The owning constructor used to skip the null/length validation
    // the view constructor enforces; both must reject identically.
    EXPECT_THROW(MicroGlb(nullptr, 4, 16), FatalError);
    EXPECT_THROW(MicroGlb(nullptr, -1, 16), FatalError);
    std::vector<float> data(4, 1.0f);
    EXPECT_THROW(MicroGlb(data.data(), 4, 0), FatalError);
    EXPECT_THROW(MicroGlb(std::vector<float>(4, 1.0f), 0), FatalError);
    EXPECT_THROW(MicroGlb(std::vector<float>(4, 1.0f), -3), FatalError);
    // Valid empty streams are fine through either constructor.
    MicroGlb empty_view(nullptr, 0, 16);
    EXPECT_EQ(empty_view.numRows(), 0);
    MicroGlb empty_owned(std::vector<float>{}, 16);
    EXPECT_EQ(empty_owned.numRows(), 0);
}

TEST(Vfmu, VariableShiftOverAlignedRows)
{
    // Fig 11: 16-word rows, shifts of 12 (three 4-word blocks for
    // C1(2:3)) straddle row boundaries.
    std::vector<float> data(48);
    for (int i = 0; i < 48; ++i)
        data[static_cast<std::size_t>(i)] = static_cast<float>(i + 1);
    MicroGlb glb(data, 16);
    Vfmu vfmu(glb, 32);
    const auto s1 = vfmu.readShift(12);
    ASSERT_EQ(s1.size(), 12u);
    EXPECT_FLOAT_EQ(s1[0], 1.0f);
    const auto s2 = vfmu.readShift(12);
    EXPECT_FLOAT_EQ(s2[0], 13.0f); // continues across the row boundary
    const auto s3 = vfmu.readShift(12);
    EXPECT_FLOAT_EQ(s3[11], 36.0f);
    EXPECT_EQ(vfmu.stats().shifts, 3);
}

TEST(Vfmu, SkipsFetchWhenBufferSuffices)
{
    // Fig 12(b) step 2: 13 valid entries, next step needs 8 -> no GLB
    // fetch.
    std::vector<float> data(32, 1.0f);
    MicroGlb glb(data, 16);
    Vfmu vfmu(glb, 32);
    (void)vfmu.readShift(3); // fetches a 16-word row, leaves 13
    const auto fetches_before = glb.stats().row_fetches;
    (void)vfmu.readShift(8); // served from the buffer
    EXPECT_EQ(glb.stats().row_fetches, fetches_before);
    EXPECT_GE(vfmu.stats().skipped_fetches, 1);
}

TEST(Vfmu, ZeroShiftMovesNothingAndCountsNothing)
{
    // An all-zero compressed set asks for a shift of 0: the shifter
    // never activates and no fetch is skipped, so no counter may tick
    // (previously both `shifts` and `skipped_fetches` were inflated,
    // corrupting the fidelity counters the integration tests
    // cross-check). The stream position must be untouched.
    std::vector<float> data(32);
    for (int i = 0; i < 32; ++i)
        data[static_cast<std::size_t>(i)] = static_cast<float>(i + 1);
    MicroGlb glb(data, 16);
    Vfmu vfmu(glb, 32);

    float out[32];
    EXPECT_EQ(vfmu.readShift(0, out), 0);
    EXPECT_EQ(vfmu.stats().shifts, 0);
    EXPECT_EQ(vfmu.stats().skipped_fetches, 0);
    EXPECT_EQ(vfmu.stats().words_out, 0);
    EXPECT_EQ(glb.stats().row_fetches, 0); // no refill either

    // Interleaved zero shifts leave the stream order intact.
    const auto first = vfmu.readShift(4);
    ASSERT_EQ(first.size(), 4u);
    EXPECT_FLOAT_EQ(first[0], 1.0f);
    EXPECT_EQ(vfmu.readShift(0, out), 0);
    const auto second = vfmu.readShift(4);
    ASSERT_EQ(second.size(), 4u);
    EXPECT_FLOAT_EQ(second[0], 5.0f);
    EXPECT_EQ(vfmu.stats().shifts, 2);
    EXPECT_EQ(vfmu.stats().words_out, 8);
}

TEST(Vfmu, RejectsShiftBeyondCapacity)
{
    std::vector<float> data(32, 1.0f);
    MicroGlb glb(data, 16);
    Vfmu vfmu(glb, 16);
    EXPECT_THROW(vfmu.readShift(17), FatalError);
}

TEST(Vfmu, RingWrapAroundDeliversStreamInOrder)
{
    // Capacity 28 with 16-word rows and shifts of 12: neither divides
    // the capacity, so successive refills and reads land on every
    // alignment and repeatedly wrap around the ring end. Every word
    // must still come out in stream order.
    std::vector<float> data(96);
    for (int i = 0; i < 96; ++i)
        data[static_cast<std::size_t>(i)] = static_cast<float>(i + 1);
    MicroGlb glb(data, 16);
    Vfmu vfmu(glb, 28);
    float next = 1.0f;
    for (int s = 0; s < 8; ++s) {
        const auto words = vfmu.readShift(12);
        ASSERT_EQ(words.size(), 12u) << "shift " << s;
        for (float w : words)
            EXPECT_FLOAT_EQ(w, next++) << "shift " << s;
    }
    EXPECT_TRUE(vfmu.exhausted());
}

TEST(Vfmu, RefillExceedingCapacityPanics)
{
    // Capacity = one row: 13 buffered words + a 16-word refill cannot
    // fit, which models an undersized physical buffer.
    std::vector<float> data(64, 1.0f);
    MicroGlb glb(data, 16);
    Vfmu vfmu(glb, 16);
    (void)vfmu.readShift(3); // buffer now holds 13 words
    EXPECT_THROW(vfmu.readShift(14), PanicError);
}

TEST(Vfmu, ResetRestreamsFromTheTop)
{
    std::vector<float> data(32);
    for (int i = 0; i < 32; ++i)
        data[static_cast<std::size_t>(i)] = static_cast<float>(i + 1);
    MicroGlb glb(data, 16);
    Vfmu vfmu(glb, 32);
    (void)vfmu.readShift(20);
    vfmu.reset();
    EXPECT_EQ(vfmu.validWords(), 0);
    EXPECT_EQ(vfmu.stats().shifts, 0);
    const auto again = vfmu.readShift(4);
    ASSERT_EQ(again.size(), 4u);
    EXPECT_FLOAT_EQ(again[0], 1.0f); // back at the stream head
}

TEST(Vfmu, ExhaustionAtStreamEnd)
{
    std::vector<float> data(16, 1.0f);
    MicroGlb glb(data, 16);
    Vfmu vfmu(glb, 32);
    (void)vfmu.readShift(16);
    EXPECT_TRUE(vfmu.exhausted());
    EXPECT_TRUE(vfmu.readShift(4).empty());
}

TEST(Pe, GatesZeroOperands)
{
    MicroPe pe(2);
    pe.loadBlock({2.0f, 0.0f}, {1, 0}); // lane 1 is a dummy
    const double psum = pe.step({0.0f, 3.0f, 0.0f, 0.0f});
    EXPECT_DOUBLE_EQ(psum, 6.0); // 2 * 3 via offset 1
    EXPECT_EQ(pe.stats().mac_ops, 1);
    EXPECT_EQ(pe.stats().gated_macs, 1);
    EXPECT_EQ(pe.stats().mux_selects, 2);
}

TEST(Pe, GatesWhenSelectedBIsZero)
{
    MicroPe pe(2);
    pe.loadBlock({2.0f, 4.0f}, {0, 3});
    const double psum = pe.step({5.0f, 1.0f, 1.0f, 0.0f});
    EXPECT_DOUBLE_EQ(psum, 10.0); // lane 1 selects B=0 -> gated
    EXPECT_EQ(pe.stats().gated_macs, 1);
}

TEST(Pe, GatedLanesAddPositiveZeroEvenForInfAndNan)
{
    // An inf or NaN A lane against a zero B gates: it adds +0.0, not
    // the NaN that inf * 0 or NaN * 0 would give.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    MicroPe pe(3);
    pe.loadBlock({inf, nan, -inf}, {0, 1, 2});
    const double psum = pe.step({0.0f, 0.0f, -0.0f, 5.0f});
    EXPECT_EQ(psum, 0.0);
    EXPECT_FALSE(std::signbit(psum));
    EXPECT_EQ(pe.stats().mac_ops, 0);
    EXPECT_EQ(pe.stats().gated_macs, 3);
    EXPECT_EQ(pe.stats().mux_selects, 3);

    // -0.0f gates on either side, and the gated lanes leave the sum of
    // the effectual ones bit-exact.
    MicroPe signed_zero(3);
    signed_zero.loadBlock({-0.0f, 2.0f, 3.0f}, {0, 1, 2});
    const double sum = signed_zero.step({7.0f, -0.0f, -1.5f});
    EXPECT_EQ(sum, -4.5);
    EXPECT_EQ(signed_zero.stats().mac_ops, 1);
    EXPECT_EQ(signed_zero.stats().gated_macs, 2);

    MicroPe all_gated(2);
    all_gated.loadBlock({-0.0f, -2.0f}, {0, 1});
    const double zero = all_gated.step({-3.0f, -0.0f});
    EXPECT_EQ(zero, 0.0);
    EXPECT_FALSE(std::signbit(zero));
}

TEST(Pe, StepOnAnAllZeroBlockGatesEveryLane)
{
    // Real lanes, a dummy lane and an offset past the block: every one
    // gates against an all-zero block.
    const std::vector<float> values = {1.5f, 0.0f, -2.0f, 4.0f};
    const std::vector<std::uint8_t> offsets = {0, 3, 1, 7};
    const std::vector<float> zeros(4, 0.0f);
    MicroPe pe(4);
    pe.loadBlock(values, offsets);
    for (int i = 0; i < 3; ++i) {
        const double psum = pe.step(zeros);
        EXPECT_EQ(psum, 0.0);
        EXPECT_FALSE(std::signbit(psum));
    }
    EXPECT_EQ(pe.stats().mac_ops, 0);
    EXPECT_EQ(pe.stats().gated_macs, 12);
    EXPECT_EQ(pe.stats().mux_selects, 12);
}

/**
 * End-to-end functional property: for (degree index, compress_b), the
 * simulated GEMM equals the dense reference exactly, and the cycle
 * count matches M * groups * N.
 */
class SimCorrectness
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>>
{
};

TEST_P(SimCorrectness, OutputMatchesReferenceAndCyclesFormula)
{
    const auto degrees = enumerateDegrees(highlightWeightSupport());
    const HssSpec spec = degrees[std::get<0>(GetParam())].spec;
    const bool compress_b = std::get<1>(GetParam());

    Rng rng(std::get<0>(GetParam()) * 2 + (compress_b ? 1 : 0));
    const std::int64_t m = 3;
    const std::int64_t k = spec.totalSpan() * 3;
    const std::int64_t n = 5;

    auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    auto b = compress_b
                 ? randomUnstructured(TensorShape({{"K", k}, {"N", n}}),
                                      0.5, rng)
                 : randomDense(TensorShape({{"K", k}, {"N", n}}), rng);

    MicrosimConfig cfg;
    cfg.compress_b = compress_b;
    const HighlightSimulator sim(cfg);
    const auto result = sim.run(a, spec, b);

    const auto reference = referenceGemm(a, b);
    EXPECT_LT(result.output.maxAbsDiff(reference), 1e-3)
        << "spec " << spec.str();

    const std::int64_t groups = k / spec.totalSpan();
    EXPECT_EQ(result.stats.cycles, m * groups * n);
}

INSTANTIATE_TEST_SUITE_P(
    DegreesAndModes, SimCorrectness,
    ::testing::Combine(::testing::Range<std::size_t>(0, 12),
                       ::testing::Bool()));

TEST(Simulator, SpeedupVsDenseIsZeroWhenNothingExecuted)
{
    // A result whose stats recorded zero cycles (nothing executed):
    // the speedup ratio is undefined and must not become inf/NaN.
    SimResult empty{DenseTensor(TensorShape({{"M", 1}, {"N", 1}})), {}};
    const double s = empty.speedupVsDense(1, 16, 1);
    EXPECT_EQ(s, 0.0);
    EXPECT_FALSE(std::isnan(s));
}

/**
 * Golden SimStats fixture: every counter (and the exact output sum)
 * pinned for compress_b on/off x 1-rank/2-rank specs. The values were
 * captured from the pre-ring-buffer reference implementation; the
 * zero-allocation steady-state loop must reproduce them bit-exactly.
 */
struct GoldenStats
{
    const char *name;
    bool two_rank;
    bool compress_b;
    std::int64_t cycles, a_words, psum, dummy;
    std::int64_t glb_fetches, glb_words;
    std::int64_t vfmu_shifts, vfmu_skipped, vfmu_words;
    std::int64_t mac, gated, mux;
    double out_sum; // exact double sum of the output elements
};

class SimGolden : public ::testing::TestWithParam<GoldenStats>
{
};

TEST_P(SimGolden, EveryCounterMatchesTheReferenceImplementation)
{
    const GoldenStats &g = GetParam();
    const HssSpec spec =
        g.two_rank ? HssSpec({GhPattern(2, 4), GhPattern(2, 4)})
                   : HssSpec({GhPattern(2, 4)});
    Rng rng_a(101), rng_b(202);
    const std::int64_t m = 3;
    const std::int64_t k = spec.totalSpan() * 4;
    const std::int64_t n = 6;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng_a), spec);
    const auto b =
        g.compress_b
            ? randomUnstructured(TensorShape({{"K", k}, {"N", n}}), 0.6,
                                 rng_b)
            : randomDense(TensorShape({{"K", k}, {"N", n}}), rng_b);
    MicrosimConfig cfg;
    cfg.compress_b = g.compress_b;
    const auto r = HighlightSimulator(cfg).run(a, spec, b);
    const SimStats &s = r.stats;
    EXPECT_EQ(s.cycles, g.cycles);
    EXPECT_EQ(s.a_words_loaded, g.a_words);
    EXPECT_EQ(s.psum_updates, g.psum);
    EXPECT_EQ(s.dummy_blocks, g.dummy);
    EXPECT_EQ(s.glb_b.row_fetches, g.glb_fetches);
    EXPECT_EQ(s.glb_b.words_read, g.glb_words);
    EXPECT_EQ(s.vfmu.shifts, g.vfmu_shifts);
    EXPECT_EQ(s.vfmu.skipped_fetches, g.vfmu_skipped);
    EXPECT_EQ(s.vfmu.words_out, g.vfmu_words);
    EXPECT_EQ(s.pe.mac_ops, g.mac);
    EXPECT_EQ(s.pe.gated_macs, g.gated);
    EXPECT_EQ(s.pe.mux_selects, g.mux);
    double sum = 0.0;
    for (float v : r.output.data())
        sum += static_cast<double>(v);
    EXPECT_EQ(sum, g.out_sum); // bit-exact, not approximate
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, SimGolden,
    ::testing::Values(
        GoldenStats{"one_rank_dense_b", false, false, 72, 24, 72, 0,
                    18, 288, 72, 54, 288, 144, 0, 144, 0x1.e3b34a8p+2},
        // vfmu_shifts/vfmu_skipped were 72/63 when readShift(0) on an
        // all-zero compressed set still ticked both counters; this
        // fixture has 9 such sets, which no longer count (a zero shift
        // moves no data and skips no fetch). Everything else,
        // including words_out and the output sum, is unchanged.
        GoldenStats{"one_rank_comp_b", false, true, 72, 24, 72, 0, 9,
                    144, 63, 54, 114, 58, 86, 144, 0x1.b637fbp+2},
        GoldenStats{"two_rank_dense_b", true, false, 72, 48, 72, 0, 72,
                    1152, 72, 0, 1152, 288, 0, 288, 0x1.a859ffep+5},
        GoldenStats{"two_rank_comp_b", true, true, 72, 48, 72, 0, 30,
                    480, 72, 42, 462, 112, 176, 288, 0x1.d43348bp+3}),
    [](const ::testing::TestParamInfo<GoldenStats> &info) {
        return info.param.name;
    });

TEST(Simulator, SpeedupMatchesInverseDensity)
{
    // C1(4:8) -> C0(2:4): density 0.25 -> 4x fewer steps than a dense
    // datapath of the same width.
    const HssSpec spec({GhPattern(2, 4), GhPattern(4, 8)});
    Rng rng(5);
    const std::int64_t m = 2, k = spec.totalSpan() * 2, n = 4;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
    const auto result = HighlightSimulator().run(a, spec, b);
    EXPECT_NEAR(result.speedupVsDense(m, k, n), 4.0, 1e-9);
}

TEST(Simulator, GatedMacsTrackBSparsity)
{
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(9);
    const std::int64_t m = 2, k = 32, n = 8;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b_dense =
        randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
    const auto b_sparse = unstructuredSparsify(b_dense, 0.5);

    const auto r_dense = HighlightSimulator().run(a, spec, b_dense);
    const auto r_sparse = HighlightSimulator().run(a, spec, b_sparse);
    // Same cycles (gating does not change timing, Sec 6.4)...
    EXPECT_EQ(r_dense.stats.cycles, r_sparse.stats.cycles);
    // ...but fewer effectual MACs and more gated lanes.
    EXPECT_LT(r_sparse.stats.pe.mac_ops, r_dense.stats.pe.mac_ops);
    EXPECT_GT(r_sparse.stats.pe.gated_macs,
              r_dense.stats.pe.gated_macs);
}

TEST(Simulator, CompressedBReducesGlbTraffic)
{
    // Streaming B compressed changes only what the GLB and VFMU move:
    // outputs are bit-identical to the dense stream and every
    // datapath counter matches. The dense path steps the PEs on every
    // set, so it checks the compressed path's shortcut for all-zero
    // sets independently; the zeroed K range makes such sets common
    // for both specs.
    const HssSpec specs[] = {
        HssSpec({GhPattern(2, 4)}),
        HssSpec({GhPattern(2, 4), GhPattern(2, 4)})};
    for (const HssSpec &spec : specs) {
        for (const double sparsity : {0.5, 0.9, 0.97}) {
            for (const bool zero_range : {false, true}) {
                SCOPED_TRACE(spec.str() + " sparsity " +
                             std::to_string(sparsity) +
                             (zero_range ? " zeroed K range" : ""));
                Rng rng(13);
                const std::int64_t m = 5, k = 64, n = 8;
                const auto a = hssSparsify(
                    randomDense(TensorShape({{"M", m}, {"K", k}}), rng),
                    spec);
                auto b = randomUnstructured(
                    TensorShape({{"K", k}, {"N", n}}), sparsity, rng);
                if (zero_range) {
                    for (std::int64_t kk = 16; kk < 48; ++kk)
                        for (std::int64_t col = 0; col < n; ++col)
                            b.set2(kk, col, 0.0f);
                }

                MicrosimConfig dense_cfg, comp_cfg;
                comp_cfg.compress_b = true;
                const auto r_dense =
                    HighlightSimulator(dense_cfg).run(a, spec, b);
                const auto r_comp =
                    HighlightSimulator(comp_cfg).run(a, spec, b);
                EXPECT_LT(r_comp.stats.glb_b.words_read,
                          r_dense.stats.glb_b.words_read);

                ASSERT_EQ(r_comp.output.data().size(),
                          r_dense.output.data().size());
                EXPECT_EQ(std::memcmp(r_comp.output.data().data(),
                                      r_dense.output.data().data(),
                                      r_dense.output.data().size() *
                                          sizeof(float)),
                          0);
                const SimStats &c = r_comp.stats, &d = r_dense.stats;
                EXPECT_EQ(c.cycles, d.cycles);
                EXPECT_EQ(c.psum_updates, d.psum_updates);
                EXPECT_EQ(c.a_words_loaded, d.a_words_loaded);
                EXPECT_EQ(c.dummy_blocks, d.dummy_blocks);
                EXPECT_EQ(c.pe.mac_ops, d.pe.mac_ops);
                EXPECT_EQ(c.pe.gated_macs, d.pe.gated_macs);
                EXPECT_EQ(c.pe.mux_selects, d.pe.mux_selects);
            }
        }
    }
}

TEST(Simulator, DummyBlocksCountedForUnderOccupiedGroups)
{
    // A row with one empty group half: rank-1 padding shows up as
    // dummy blocks (the hardware keeps PEs in sync with zero work).
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    DenseTensor a(TensorShape({{"M", 1}, {"K", 16}}));
    a.set2(0, 0, 1.0f); // only one nonzero -> 1 real block, 1 dummy
    const auto b = [] {
        Rng rng(17);
        return randomDense(TensorShape({{"K", 16}, {"N", 2}}), rng);
    }();
    const auto result = HighlightSimulator().run(a, spec, b);
    EXPECT_GE(result.stats.dummy_blocks, 1);
    const auto reference = referenceGemm(a, b);
    EXPECT_LT(result.output.maxAbsDiff(reference), 1e-5);
}

TEST(Simulator, SingleRankSpecRuns)
{
    const HssSpec spec({GhPattern(2, 4)});
    Rng rng(21);
    const std::int64_t m = 2, k = 16, n = 3;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
    const auto result = HighlightSimulator().run(a, spec, b);
    EXPECT_LT(result.output.maxAbsDiff(referenceGemm(a, b)), 1e-4);
    EXPECT_EQ(result.stats.cycles, m * (k / 4) * n);
}

TEST(Simulator, RejectsMismatchedOperands)
{
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    auto a = DenseTensor::matrix(2, 16);
    auto b = DenseTensor::matrix(8, 4); // K mismatch
    EXPECT_THROW(HighlightSimulator().run(a, spec, b), FatalError);
}

TEST(Simulator, RejectsNonDivisibleK)
{
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    auto a = DenseTensor::matrix(2, 20);
    auto b = DenseTensor::matrix(20, 4);
    EXPECT_THROW(HighlightSimulator().run(a, spec, b), FatalError);
}

TEST(Simulator, RejectsNanOperands)
{
    // With two NaN payloads the bits of a sum or product depend on the
    // operand order, which the lane kernel's ISA variants need not
    // share, so run() refuses a NaN in either operand and says where
    // it is. +-inf runs: inf - inf gives the same default NaN
    // everywhere.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(23);
    const std::int64_t m = 3, k = spec.totalSpan() * 2, n = 5;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b =
        randomUnstructured(TensorShape({{"K", k}, {"N", n}}), 0.5, rng);
    const auto expectRejected = [&](const DenseTensor &a_in,
                                    const DenseTensor &b_in,
                                    bool compress_b,
                                    const std::string &where) {
        MicrosimConfig cfg;
        cfg.compress_b = compress_b;
        try {
            HighlightSimulator(cfg).run(a_in, spec, b_in);
            ADD_FAILURE() << where << " ran";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
                << e.what();
        }
    };
    // A quiet NaN, and one with a payload and the sign bit set.
    float payload_nan = 0.0f;
    const std::uint32_t payload_bits = 0xffc01234u;
    std::memcpy(&payload_nan, &payload_bits, sizeof payload_nan);
    for (const float nan :
         {std::numeric_limits<float>::quiet_NaN(), payload_nan}) {
        // In A, in place of row 2's first nonzero, so A still conforms.
        std::int64_t col = 0;
        while (a.at2(2, col) == 0.0f)
            ++col;
        DenseTensor bad_a = a;
        bad_a.set2(2, col, nan);
        for (const bool compress_b : {false, true})
            expectRejected(bad_a, b, compress_b,
                           msgOf("operand A holds NaN at row 2, column ",
                                 col));
        // In B, streamed dense and compressed.
        DenseTensor bad_b = b;
        bad_b.set2(k - 3, 4, nan);
        expectRejected(a, bad_b, false,
                       msgOf("operand B holds NaN at row ", k - 3,
                             ", column 4"));
        bad_b.set2(5, 1, nan);
        expectRejected(a, bad_b, true,
                       "operand B holds NaN at row 5, column 1");
    }

    const float inf = std::numeric_limits<float>::infinity();
    DenseTensor inf_a = a;
    for (std::int64_t c = 0; c < k; ++c)
        if (inf_a.at2(1, c) != 0.0f)
            inf_a.set2(1, c, c % 2 == 0 ? inf : -inf);
    DenseTensor inf_b = b;
    inf_b.set2(0, 0, -inf);
    for (const bool compress_b : {false, true}) {
        MicrosimConfig cfg;
        cfg.compress_b = compress_b;
        EXPECT_NO_THROW(HighlightSimulator(cfg).run(inf_a, spec, inf_b));
    }
}

TEST(RowWorker, PanicsOnTruncatedOperandBStream)
{
    // Regression: run() used to ignore Vfmu::readShift's return value,
    // so a truncated stream silently computed with stale scratch from
    // the previous (group, column) step. A short read must panic.
    const HssSpec spec({GhPattern(2, 4)});
    Rng rng(33);
    const std::int64_t m = 1, k = 16, n = 4;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
    const HierarchicalCpMatrix a_cp(a, spec);
    const std::int64_t set_span = spec.totalSpan();
    const auto stream = buildOrderedBStream(b, set_span);

    SimContext ctx;
    ctx.a_cp = &a_cp;
    ctx.stream = stream.data();
    ctx.stream_len = static_cast<std::int64_t>(stream.size());
    ctx.glb_row_words = 16;
    ctx.vfmu_capacity = 32;
    ctx.g0 = 2;
    ctx.h0 = 4;
    ctx.groups = k / set_span;
    ctx.n = n;

    // Sanity: the full stream runs clean and matches the reference.
    DenseTensor out(TensorShape({{"M", m}, {"N", n}}));
    RowWorker whole(ctx);
    whole.runRow(0, out);
    EXPECT_LT(out.maxAbsDiff(referenceGemm(a, b)), 1e-4);

    // A deliberately truncated GLB view of the same stream: the VFMU
    // runs dry mid-row and the short read must panic, not corrupt.
    // The sub-row case (shorter by less than one GLB row) is the
    // treacherous one: the GLB zero-pads the final partial row, and
    // that padding must not masquerade as delivered stream words.
    for (const std::int64_t cut_len :
         {ctx.stream_len / 2, ctx.stream_len - 5}) {
        SimContext cut = ctx;
        cut.stream_len = cut_len;
        DenseTensor out_cut(TensorShape({{"M", m}, {"N", n}}));
        RowWorker truncated(cut);
        EXPECT_THROW(truncated.runRow(0, out_cut), PanicError)
            << "stream_len=" << cut_len;
    }
}

TEST(RowWorker, PanicsOnTruncatedCompressedStream)
{
    // Same defect on the compressed-B path (the other ignored return
    // value): the metadata promises more nonzeros than the truncated
    // values stream delivers.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(34);
    const std::int64_t m = 1, k = 32, n = 4;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomUnstructured(
        TensorShape({{"K", k}, {"N", n}}), 0.4, rng);
    const HierarchicalCpMatrix a_cp(a, spec);
    const std::int64_t set_span = spec.totalSpan();
    const auto stream = buildOrderedBStream(b, set_span);
    const OperandBStream b_comp(
        stream.data(), static_cast<std::int64_t>(stream.size()), 4, 4);
    ASSERT_GT(b_comp.dataWords(), 1);

    SimContext ctx;
    ctx.a_cp = &a_cp;
    ctx.b_comp = &b_comp;
    ctx.stream = b_comp.valuesData();
    ctx.stream_len = b_comp.dataWords() / 2; // truncated GLB view
    ctx.glb_row_words = 16;
    ctx.vfmu_capacity = 48;
    ctx.g0 = 2;
    ctx.h0 = 4;
    ctx.g1 = 2;
    ctx.h1 = 4;
    ctx.two_rank = true;
    ctx.groups = k / set_span;
    ctx.n = n;

    DenseTensor out(TensorShape({{"M", m}, {"N", n}}));
    RowWorker truncated(ctx);
    EXPECT_THROW(truncated.runRow(0, out), PanicError);

    // Sub-row truncation of the packed values: the GLB's padded final
    // row must still surface as a short read, not phantom zeros.
    SimContext barely = ctx;
    barely.stream_len = b_comp.dataWords() - 1;
    DenseTensor out2(TensorShape({{"M", m}, {"N", n}}));
    RowWorker barely_cut(barely);
    EXPECT_THROW(barely_cut.runRow(0, out2), PanicError);
}

/**
 * A valid hand-built worker context over (a, spec, b), owning what it
 * points at, so a test can break one field at a time.
 */
struct HandContext
{
    HandContext(const DenseTensor &a, const HssSpec &spec,
                const DenseTensor &b, bool compress_b)
        : a_cp(a, spec), stream(buildOrderedBStream(b, spec.totalSpan()))
    {
        if (compress_b)
            b_comp = std::make_unique<OperandBStream>(
                stream.data(), static_cast<std::int64_t>(stream.size()),
                spec.rank(0).h, spec.numRanks() > 1 ? spec.rank(1).h : 1);
        ctx = makeSimContext(a_cp, b_comp.get(), stream,
                             b.shape().dim(1).extent);
    }

    // ctx points into this object.
    HandContext(const HandContext &) = delete;
    HandContext &operator=(const HandContext &) = delete;

    HierarchicalCpMatrix a_cp;
    std::vector<float> stream;
    std::unique_ptr<OperandBStream> b_comp;
    SimContext ctx;
};

/** All 12 SimStats counters equal. */
void
expectSameStats(const SimStats &s, const SimStats &g, const std::string &at)
{
    EXPECT_EQ(s.cycles, g.cycles) << at;
    EXPECT_EQ(s.a_words_loaded, g.a_words_loaded) << at;
    EXPECT_EQ(s.psum_updates, g.psum_updates) << at;
    EXPECT_EQ(s.dummy_blocks, g.dummy_blocks) << at;
    EXPECT_EQ(s.glb_b.row_fetches, g.glb_b.row_fetches) << at;
    EXPECT_EQ(s.glb_b.words_read, g.glb_b.words_read) << at;
    EXPECT_EQ(s.vfmu.shifts, g.vfmu.shifts) << at;
    EXPECT_EQ(s.vfmu.skipped_fetches, g.vfmu.skipped_fetches) << at;
    EXPECT_EQ(s.vfmu.words_out, g.vfmu.words_out) << at;
    EXPECT_EQ(s.pe.mac_ops, g.pe.mac_ops) << at;
    EXPECT_EQ(s.pe.gated_macs, g.pe.gated_macs) << at;
    EXPECT_EQ(s.pe.mux_selects, g.pe.mux_selects) << at;
}

TEST(OperandBPass, PanicsOnTruncatedView)
{
    // The pass is where a short VFMU read surfaces, for run() and for
    // a worker that runs its own pass alike. A GLB view cut by half,
    // or by less than one GLB row (whose zero padding must not pass
    // for stream words), must panic on both B paths rather than leave
    // a set holding words of no set.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(35);
    const std::int64_t m = 2, k = spec.totalSpan() * 2, n = 4;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomUnstructured(TensorShape({{"K", k}, {"N", n}}),
                                      0.4, rng);
    for (const bool compress_b : {false, true}) {
        const HandContext hc(a, spec, b, compress_b);
        ASSERT_GT(hc.ctx.stream_len, 2);
        EXPECT_NO_THROW(OperandBPass{hc.ctx});
        for (const std::int64_t cut_len :
             {hc.ctx.stream_len / 2, hc.ctx.stream_len - 1}) {
            SimContext cut = hc.ctx;
            cut.stream_len = cut_len;
            EXPECT_THROW(OperandBPass{cut}, PanicError)
                << (compress_b ? "comp_b" : "dense_b")
                << " stream_len=" << cut_len;
        }
    }
}

TEST(OperandBPass, TableHoldsEverySlotColumnMajorWithItsNonzeroCount)
{
    // Slot s of K-group g is B's row g * H1 * H0 + s, laid out over
    // every output column, on both B paths (a compressed zero reads
    // +0.0, the dense path keeps a -0.0), and its nonzero count is the
    // number of columns where that row is nonzero.
    const HssSpec spec({GhPattern(1, 4), GhPattern(2, 3)});
    Rng rng(36);
    const std::int64_t m = 2, k = spec.totalSpan() * 3, n = 5;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    auto b = randomUnstructured(TensorShape({{"K", k}, {"N", n}}), 0.6,
                                rng);
    b.set2(0, 0, -0.0f);
    const std::int64_t span = spec.totalSpan();
    for (const bool compress_b : {false, true}) {
        const HandContext hc(a, spec, b, compress_b);
        const OperandBPass pass(hc.ctx);
        ASSERT_EQ(pass.numKGroups(), k / span);
        ASSERT_EQ(pass.slotsPerGroup(), span);
        ASSERT_EQ(pass.numColumns(), n);
        for (std::int64_t g = 0; g < pass.numKGroups(); ++g) {
            for (int s = 0; s < span; ++s) {
                const float *slot = pass.slot(g, s);
                std::int64_t nonzeros = 0;
                for (std::int64_t c = 0; c < n; ++c) {
                    const float word = b.at2(g * span + s, c);
                    const float want =
                        compress_b && word == 0.0f ? 0.0f : word;
                    EXPECT_EQ(std::memcmp(&slot[c], &want, sizeof want), 0)
                        << "K-group " << g << " slot " << s << " column "
                        << c << ": " << slot[c] << " vs " << want;
                    nonzeros += word != 0.0f;
                }
                EXPECT_EQ(pass.nonzeros(g, s), nonzeros)
                    << "K-group " << g << " slot " << s;
            }
        }
        EXPECT_EQ(pass.vfmuStats().words_out,
                  compress_b ? hc.b_comp->dataWords() : k * n);
    }
}

/**
 * Thread-count determinism: run() outputs and every SimStats counter
 * must be byte-identical for any pool size, for compress_b on/off x
 * 1/2-rank specs. The pool is rebuilt around each run; the fixture
 * restores the default afterwards so later tests see a clean runtime.
 */
class ThreadDeterminism
    : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(0); }
};

TEST_P(ThreadDeterminism, OutputsAndCountersByteIdenticalAcrossPools)
{
    const bool two_rank = std::get<0>(GetParam());
    const bool compress_b = std::get<1>(GetParam());
    const HssSpec spec =
        two_rank ? HssSpec({GhPattern(2, 4), GhPattern(2, 4)})
                 : HssSpec({GhPattern(2, 4)});
    Rng rng_a(71), rng_b(72);
    const std::int64_t m = 8;
    const std::int64_t k = spec.totalSpan() * 4;
    const std::int64_t n = 16;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng_a), spec);
    const auto b =
        compress_b
            ? randomUnstructured(TensorShape({{"K", k}, {"N", n}}), 0.5,
                                 rng_b)
            : randomDense(TensorShape({{"K", k}, {"N", n}}), rng_b);
    MicrosimConfig cfg;
    cfg.compress_b = compress_b;
    const HighlightSimulator sim(cfg);

    ThreadPool::setGlobalThreads(1);
    const auto base = sim.run(a, spec, b);
    EXPECT_GT(base.stats.cycles, 0);

    for (const int threads : {2, ThreadPool::defaultThreadCount()}) {
        ThreadPool::setGlobalThreads(threads);
        const auto r = sim.run(a, spec, b);
        // Outputs byte-identical, not merely close.
        ASSERT_EQ(r.output.data().size(), base.output.data().size());
        EXPECT_EQ(std::memcmp(r.output.data().data(),
                              base.output.data().data(),
                              base.output.data().size() * sizeof(float)),
                  0)
            << "threads=" << threads;
        const SimStats &s = r.stats, &g = base.stats;
        EXPECT_EQ(s.cycles, g.cycles) << "threads=" << threads;
        EXPECT_EQ(s.a_words_loaded, g.a_words_loaded);
        EXPECT_EQ(s.psum_updates, g.psum_updates);
        EXPECT_EQ(s.dummy_blocks, g.dummy_blocks);
        EXPECT_EQ(s.glb_b.row_fetches, g.glb_b.row_fetches);
        EXPECT_EQ(s.glb_b.words_read, g.glb_b.words_read);
        EXPECT_EQ(s.vfmu.shifts, g.vfmu.shifts);
        EXPECT_EQ(s.vfmu.skipped_fetches, g.vfmu.skipped_fetches);
        EXPECT_EQ(s.vfmu.words_out, g.vfmu.words_out);
        EXPECT_EQ(s.pe.mac_ops, g.pe.mac_ops);
        EXPECT_EQ(s.pe.gated_macs, g.pe.gated_macs);
        EXPECT_EQ(s.pe.mux_selects, g.pe.mux_selects);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndModes, ThreadDeterminism,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>> &info) {
        return std::string(std::get<0>(info.param) ? "two_rank"
                                                   : "one_rank") +
               (std::get<1>(info.param) ? "_comp_b" : "_dense_b");
    });

/**
 * run() recomposed from a hand-built context, which carries no shared
 * operand-B pass: two workers take alternate groups of `group_rows`
 * rows, so each runs its own pass on its first group and reuses it on
 * the rest, and their counters are folded in order.
 */
SimResult
runWithWorkerPasses(const DenseTensor &a, const HssSpec &spec,
                    const DenseTensor &b, bool compress_b, int group_rows)
{
    const std::int64_t m = a.shape().dim(0).extent;
    const HandContext hc(a, spec, b, compress_b);
    EXPECT_EQ(hc.ctx.b_pass, nullptr);
    SimResult r{DenseTensor(TensorShape({{"M", m}, {"N", hc.ctx.n}})), {}};
    RowGroupWorker even(hc.ctx, group_rows), odd(hc.ctx, group_rows);
    for (std::int64_t row0 = 0; row0 < m; row0 += group_rows) {
        const int nrows = static_cast<int>(
            std::min<std::int64_t>(group_rows, m - row0));
        (row0 / group_rows % 2 == 0 ? even : odd)
            .runGroup(row0, nrows, r.output);
    }
    r.stats.accumulate(even.stats());
    r.stats.accumulate(odd.stats());
    return r;
}

/**
 * Group-size determinism: stepping row groups against one shared
 * operand-B pass with restream-equivalent accounting must leave
 * outputs AND every SimStats counter byte-identical to ungrouped
 * serial execution, at every group size x pool size, for compress_b
 * on/off x 1/2-rank specs. The ungrouped serial run (group_rows=1, one
 * thread) is the reference. One more input takes the other source of
 * the pass: workers over a hand-built context, each running its own.
 */
class GroupDeterminism
    : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(0); }
};

TEST_P(GroupDeterminism, MatchesUngroupedSerialAtEveryGroupAndPoolSize)
{
    const bool two_rank = std::get<0>(GetParam());
    const bool compress_b = std::get<1>(GetParam());
    const HssSpec spec =
        two_rank ? HssSpec({GhPattern(2, 4), GhPattern(2, 4)})
                 : HssSpec({GhPattern(2, 4)});
    Rng rng_a(81), rng_b(82);
    // m = 10 exercises a partial trailing group at sizes 4 and 8.
    const std::int64_t m = 10;
    const std::int64_t k = spec.totalSpan() * 4;
    const std::int64_t n = 16;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng_a), spec);
    const auto b =
        compress_b
            ? randomUnstructured(TensorShape({{"K", k}, {"N", n}}), 0.5,
                                 rng_b)
            : randomDense(TensorShape({{"K", k}, {"N", n}}), rng_b);

    MicrosimConfig base_cfg;
    base_cfg.compress_b = compress_b;
    base_cfg.group_rows = 1;
    ThreadPool::setGlobalThreads(1);
    const auto base = HighlightSimulator(base_cfg).run(a, spec, b);
    EXPECT_GT(base.stats.cycles, 0);
    const auto expectSameRun = [&](const SimResult &r,
                                   const std::string &at) {
        ASSERT_EQ(r.output.data().size(), base.output.data().size());
        EXPECT_EQ(std::memcmp(r.output.data().data(),
                              base.output.data().data(),
                              base.output.data().size() * sizeof(float)),
                  0)
            << at;
        expectSameStats(r.stats, base.stats, at);
    };

    for (const int group_rows : {1, 2, 4, 8}) {
        for (const int threads :
             {1, 2, ThreadPool::defaultThreadCount()}) {
            ThreadPool::setGlobalThreads(threads);
            MicrosimConfig cfg;
            cfg.compress_b = compress_b;
            cfg.group_rows = group_rows;
            expectSameRun(HighlightSimulator(cfg).run(a, spec, b),
                          "group_rows=" + std::to_string(group_rows) +
                              " threads=" + std::to_string(threads));
        }
        expectSameRun(runWithWorkerPasses(a, spec, b, compress_b,
                                          group_rows),
                      "worker-owned pass, group_rows=" +
                          std::to_string(group_rows));
    }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndModes, GroupDeterminism,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>> &info) {
        return std::string(std::get<0>(info.param) ? "two_rank"
                                                   : "one_rank") +
               (std::get<1>(info.param) ? "_comp_b" : "_dense_b");
    });

TEST(GroupWorker, GroupCapacityMustCoverTheRequestedGroup)
{
    // Driving the worker directly with more rows than its scratch was
    // sized for is a caller bug and must fail loudly, not corrupt
    // adjacent per-row PE state.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(91);
    const std::int64_t m = 4, k = spec.totalSpan() * 2, n = 4;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
    const HierarchicalCpMatrix a_cp(a, spec);
    const auto stream = buildOrderedBStream(b, spec.totalSpan());

    SimContext ctx;
    ctx.a_cp = &a_cp;
    ctx.stream = stream.data();
    ctx.stream_len = static_cast<std::int64_t>(stream.size());
    ctx.glb_row_words = 16;
    ctx.vfmu_capacity = 48;
    ctx.g0 = 2;
    ctx.h0 = 4;
    ctx.g1 = 2;
    ctx.h1 = 4;
    ctx.two_rank = true;
    ctx.groups = k / spec.totalSpan();
    ctx.n = n;

    RowGroupWorker worker(ctx, /*group_capacity=*/2);
    DenseTensor out(TensorShape({{"M", m}, {"N", n}}));
    EXPECT_THROW(worker.runGroup(0, 3, out), FatalError);
    EXPECT_THROW(worker.runGroup(0, 0, out), FatalError);
    // Within capacity it runs fine.
    worker.runGroup(0, 2, out);
    EXPECT_GT(worker.stats().cycles, 0);
}

TEST(RowWorker, RejectsContextsThatDisagreeWithTheirOperands)
{
    // The steady state reads A payloads, B metadata and outputs
    // without bounds checks, so a hand-built context that disagrees
    // with what it points at must be fatal up front, not read or
    // write out of bounds.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(92);
    const std::int64_t m = 4, k = spec.totalSpan() * 2, n = 4;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomUnstructured(TensorShape({{"K", k}, {"N", n}}),
                                      0.5, rng);
    const HandContext dense(a, spec, b, false), comp(a, spec, b, true);
    EXPECT_NO_THROW(RowGroupWorker(dense.ctx));
    EXPECT_NO_THROW(RowGroupWorker(comp.ctx));

    SimContext c = dense.ctx;
    c.a_cp = nullptr;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "no operand A";
    c = dense.ctx;
    c.g0 = 1;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "g0";
    c = dense.ctx;
    c.h0 = 8;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "h0";
    c = dense.ctx;
    c.g1 = 1;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "g1";
    c = dense.ctx;
    c.h1 = 2;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "h1";
    c = dense.ctx;
    c.two_rank = false;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "two_rank";
    c = dense.ctx;
    c.groups = 1;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "groups vs A columns";

    // Operand B compressed for another block geometry, or over another
    // stream length.
    const OperandBStream other_geometry(
        comp.stream.data(), static_cast<std::int64_t>(comp.stream.size()),
        8, 2);
    c = comp.ctx;
    c.b_comp = &other_geometry;
    c.stream = other_geometry.valuesData();
    c.stream_len = other_geometry.dataWords();
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "b_comp geometry";
    const OperandBStream other_length(
        comp.stream.data(),
        static_cast<std::int64_t>(comp.stream.size()) / 2, 4, 4);
    c = comp.ctx;
    c.b_comp = &other_length;
    c.stream = other_length.valuesData();
    c.stream_len = other_length.dataWords();
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "b_comp length";

    // A GLB view longer than the words operand B holds.
    c = dense.ctx;
    ++c.stream_len;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "dense stream_len";
    c = comp.ctx;
    ++c.stream_len;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "packed stream_len";

    // An operand-B pass decoded for other operands.
    const OperandBPass own_pass(dense.ctx);
    c = dense.ctx;
    c.b_pass = &own_pass;
    EXPECT_NO_THROW(RowGroupWorker{c});
    const auto b_wide = randomUnstructured(
        TensorShape({{"K", k}, {"N", n + 1}}), 0.5, rng);
    const HandContext wide_b(a, spec, b_wide, false);
    const OperandBPass wide_pass(wide_b.ctx);
    c.b_pass = &wide_pass;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "b_pass columns";
    // As many K-groups and columns, each of 8 slots, not 16.
    const HssSpec narrow_spec({GhPattern(2, 8)});
    const auto a_narrow = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k / 2}}), rng),
        narrow_spec);
    const auto b_narrow = randomUnstructured(
        TensorShape({{"K", k / 2}, {"N", n}}), 0.5, rng);
    const HandContext narrow(a_narrow, narrow_spec, b_narrow, false);
    const OperandBPass narrow_pass(narrow.ctx);
    ASSERT_EQ(narrow_pass.numKGroups(), own_pass.numKGroups());
    ASSERT_EQ(narrow_pass.numColumns(), own_pass.numColumns());
    c.b_pass = &narrow_pass;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "b_pass slots";
    // Twice the K-groups, each of as many slots over as many columns.
    const auto a_deep = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", 2 * k}}), rng), spec);
    const auto b_deep = randomUnstructured(
        TensorShape({{"K", 2 * k}, {"N", n}}), 0.5, rng);
    const HandContext deep(a_deep, spec, b_deep, false);
    const OperandBPass deep_pass(deep.ctx);
    ASSERT_EQ(deep_pass.slotsPerGroup(), own_pass.slotsPerGroup());
    c.b_pass = &deep_pass;
    EXPECT_THROW(RowGroupWorker{c}, FatalError) << "b_pass K-groups";

    // An output that cannot hold the group's rows.
    RowGroupWorker worker(dense.ctx, /*group_capacity=*/2);
    DenseTensor wide(TensorShape({{"M", m}, {"N", n + 1}}));
    EXPECT_THROW(worker.runGroup(0, 2, wide), FatalError) << "columns";
    DenseTensor short_out(TensorShape({{"M", 3}, {"N", n}}));
    EXPECT_THROW(worker.runGroup(2, 2, short_out), FatalError) << "rows";
    DenseTensor flat(TensorShape({{"N", m * n}}));
    EXPECT_THROW(worker.runGroup(0, 2, flat), FatalError) << "rank";
    DenseTensor out(TensorShape({{"M", m}, {"N", n}}));
    EXPECT_THROW(worker.runGroup(-1, 2, out), FatalError) << "row0";
    // An output taller than operand A, asked for rows A does not have.
    DenseTensor tall(TensorShape({{"M", 2 * m}, {"N", n}}));
    EXPECT_THROW(worker.runGroup(6, 2, tall), FatalError) << "A rows";
    EXPECT_THROW(worker.runGroup(m - 1, 2, tall), FatalError)
        << "last A row";
    worker.runGroup(2, 2, out);
    EXPECT_EQ(worker.stats().cycles, 2 * k / spec.totalSpan() * n);
}

/**
 * The datapath's per-row operation sequence, stepped through the
 * components themselves: every output row restreams operand B through
 * its own GLB view and VFMU, expands every set in full, and steps G1
 * MicroPes per (K-group, column) — no column-major table, no
 * closed-form counters, no skipped lanes. HighlightSimulator::run must
 * reproduce its outputs bit for bit and all of its counters.
 */
SimResult
perRowReference(const DenseTensor &a, const HssSpec &spec,
                const DenseTensor &b, bool compress_b)
{
    const std::int64_t m = a.shape().dim(0).extent;
    const std::int64_t n = b.shape().dim(1).extent;
    const HandContext hc(a, spec, b, compress_b);
    const SimContext &c = hc.ctx;
    const std::int64_t set_span = static_cast<std::int64_t>(c.h0) * c.h1;
    const OperandBStream *comp = hc.b_comp.get();

    SimResult ref{DenseTensor(TensorShape({{"M", m}, {"N", n}})), {}};
    SimStats &s = ref.stats;
    for (std::int64_t row = 0; row < m; ++row) {
        MicroGlb glb(c.stream, c.stream_len, c.glb_row_words);
        Vfmu vfmu(glb, c.vfmu_capacity);
        std::vector<MicroPe> pes(static_cast<std::size_t>(c.g1),
                                 MicroPe(c.g0));
        std::vector<std::int64_t> block(static_cast<std::size_t>(c.g1));
        const HierarchicalCpRow &cp = hc.a_cp.row(row);
        for (std::int64_t g = 0; g < c.groups; ++g) {
            for (int p = 0; p < c.g1; ++p) {
                const std::size_t pp = static_cast<std::size_t>(p);
                const std::int64_t entry = g * c.g1 + p;
                const float *vals = cp.values().data() + entry * c.g0;
                block[pp] = c.two_rank ? cp.offsets(1)[entry] : 0;
                pes[pp].loadBlock(vals,
                                  cp.offsets(0).data() + entry * c.g0);
                s.a_words_loaded += c.g0;
                s.dummy_blocks += std::all_of(
                    vals, vals + c.g0, [](float v) { return v == 0.0f; });
            }
            for (std::int64_t col = 0; col < n; ++col) {
                const std::int64_t set_idx = g * n + col;
                std::vector<float> set(static_cast<std::size_t>(set_span),
                                       0.0f);
                if (comp != nullptr) {
                    const std::vector<float> words = vfmu.readShift(
                        static_cast<int>(comp->setCounts()[set_idx]));
                    const auto &ends = comp->blockEnds();
                    const std::int64_t first = set_idx * c.h1;
                    const std::int64_t start =
                        first == 0 ? 0 : ends[first - 1];
                    for (std::int64_t blk = first; blk < first + c.h1;
                         ++blk) {
                        for (std::int64_t w = blk == 0 ? 0 : ends[blk - 1];
                             w < ends[blk]; ++w)
                            set[(blk - first) * c.h0 +
                                comp->offsets()[w]] = words[w - start];
                    }
                } else {
                    set = vfmu.readShift(static_cast<int>(set_span));
                }
                double psum = 0.0;
                for (int p = 0; p < c.g1; ++p) {
                    const std::size_t pp = static_cast<std::size_t>(p);
                    psum += pes[pp].step(set.data() + block[pp] * c.h0,
                                         c.h0);
                }
                ++s.cycles;
                ++s.psum_updates;
                ref.output.set2(row, col,
                                ref.output.at2(row, col) +
                                    static_cast<float>(psum));
            }
        }
        s.glb_b.accumulate(glb.stats());
        s.vfmu.accumulate(vfmu.stats());
        for (const MicroPe &pe : pes)
            s.pe.accumulate(pe.stats());
    }
    return ref;
}

struct DiffCase
{
    const char *name;
    std::vector<GhPattern> ranks; ///< Rank 0 first.
};

class SimDifferential : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(SimDifferential, MatchesThePerRowComponentReference)
{
    const HssSpec spec(GetParam().ranks);
    Rng rng(static_cast<std::uint64_t>(spec.totalSpan()) * 131 +
            spec.numRanks());
    // m = 10 leaves a partial trailing group at group_rows 3 and 8. No
    // SIMD width divides n = 13, so each column loop runs a tail.
    for (const std::int64_t n : {16, 13}) {
        const std::int64_t m = 10, k = spec.totalSpan() * 4;
        const std::int64_t set_span = spec.totalSpan();

        // A: HSS-conforming with extra zeros, so rank-0 blocks hold
        // dummy lanes and whole rank-1 entries turn dummy; row 4 is all
        // zero.
        auto a = hssSparsify(
            randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
        for (std::int64_t r = 0; r < m; ++r)
            for (std::int64_t c = 0; c < k; ++c)
                if (r == 4 || rng.bernoulli(0.3))
                    a.set2(r, c, 0.0f);

        // B: sparse, with one K-group of all-zero sets in every column,
        // and about a third of the zeros negative.
        auto b = randomUnstructured(TensorShape({{"K", k}, {"N", n}}),
                                    0.6, rng);
        for (std::int64_t kk = 0; kk < k; ++kk) {
            for (std::int64_t c = 0; c < n; ++c) {
                const bool zero_set = kk >= set_span && kk < 2 * set_span;
                const float v = zero_set ? 0.0f : b.at2(kk, c);
                b.set2(kk, c, v == 0.0f && rng.bernoulli(0.3) ? -0.0f : v);
            }
        }

        // Two of every three of A's nonzeros facing that K-group turn
        // inf and -inf in turn. Every lane they drive gates, so each
        // must add +0.0, never inf * 0 = NaN.
        const float inf = std::numeric_limits<float>::infinity();
        int facing = 0;
        for (std::int64_t r = 0; r < m; ++r) {
            for (std::int64_t c = set_span; c < 2 * set_span; ++c) {
                if (a.at2(r, c) != 0.0f && facing++ % 3 != 2)
                    a.set2(r, c, facing % 3 == 1 ? inf : -inf);
            }
        }
        EXPECT_GE(facing, 2);

        for (const bool compress_b : {false, true}) {
            const SimResult ref = perRowReference(a, spec, b, compress_b);
            EXPECT_GT(ref.stats.pe.mac_ops, 0);
            EXPECT_GT(ref.stats.dummy_blocks, 0);
            for (const float v : ref.output.data())
                ASSERT_TRUE(std::isfinite(v)) << "a gated lane added " << v;
            for (const int group_rows : {1, 3, 8}) {
                MicrosimConfig cfg;
                cfg.compress_b = compress_b;
                cfg.group_rows = group_rows;
                const SimResult r = HighlightSimulator(cfg).run(a, spec, b);
                const std::string at =
                    spec.str() + (compress_b ? " comp_b" : " dense_b") +
                    " n=" + std::to_string(n) +
                    " group_rows=" + std::to_string(group_rows);
                ASSERT_EQ(r.output.data().size(), ref.output.data().size());
                EXPECT_EQ(std::memcmp(r.output.data().data(),
                                      ref.output.data().data(),
                                      ref.output.data().size() *
                                          sizeof(float)),
                          0)
                    << at;
                expectSameStats(r.stats, ref.stats, at);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, SimDifferential,
    ::testing::Values(
        DiffCase{"c0_1of2", {GhPattern(1, 2)}},
        DiffCase{"c0_3of8", {GhPattern(3, 8)}},
        DiffCase{"c1_2of3_c0_1of4", {GhPattern(1, 4), GhPattern(2, 3)}},
        DiffCase{"c1_3of4_c0_2of2", {GhPattern(2, 2), GhPattern(3, 4)}},
        DiffCase{"c1_4of5_c0_3of8", {GhPattern(3, 8), GhPattern(4, 5)}},
        DiffCase{"c1_4of8_c0_2of4", {GhPattern(2, 4), GhPattern(4, 8)}}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return info.param.name;
    });

/**
 * Operands that reach every corner of the lane kernel's arithmetic:
 * `spec`'s A with extra zeros (dummy lanes and whole dummy rank-1
 * entries, row 1 all zero) and about one nonzero in eight turned +inf
 * or -inf; B 40% dense with a third of its zeros -0.0, one nonzero in
 * five subnormal, and its second K-group all zero.
 */
std::pair<DenseTensor, DenseTensor>
laneKernelOperands(const HssSpec &spec, std::int64_t m, std::int64_t k,
                   std::int64_t n, Rng &rng)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float subnormal = std::numeric_limits<float>::denorm_min();
    const std::int64_t set_span = spec.totalSpan();
    auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    int infinite = 0;
    for (std::int64_t r = 0; r < m; ++r) {
        for (std::int64_t c = 0; c < k; ++c) {
            if (r == 1 || rng.bernoulli(0.25))
                a.set2(r, c, 0.0f);
            else if (a.at2(r, c) != 0.0f && rng.bernoulli(0.125))
                a.set2(r, c, infinite++ % 2 == 0 ? inf : -inf);
        }
    }
    auto b = randomUnstructured(TensorShape({{"K", k}, {"N", n}}), 0.6, rng);
    for (std::int64_t kk = 0; kk < k; ++kk) {
        for (std::int64_t c = 0; c < n; ++c) {
            float v = b.at2(kk, c);
            if (kk >= set_span && kk < 2 * set_span)
                v = 0.0f;
            if (v == 0.0f && rng.bernoulli(0.3))
                v = -0.0f;
            else if (v != 0.0f && rng.bernoulli(0.2))
                v = subnormal * static_cast<float>(1 + rng.uniformInt(0, 999)) *
                    (v < 0.0f ? -1.0f : 1.0f);
            b.set2(kk, c, v);
        }
    }
    return {a, b};
}

TEST(LaneKernel, EveryHostVariantMatchesTheBaselineBitForBit)
{
    const std::vector<LaneKernelVariant> &variants = laneKernelVariants();
    ASSERT_FALSE(variants.empty());
    for (const LaneKernelVariant &v : variants)
        if (!v.host_supported)
            std::cout << "lane kernel variant " << v.name
                      << " not run: this host cannot execute it\n";
    std::int64_t infinite = 0, nans = 0, subnormals = 0;
    const std::vector<HssSpec> specs = {
        HssSpec({GhPattern(3, 8)}),
        HssSpec({GhPattern(2, 4), GhPattern(4, 8)}),
        HssSpec({GhPattern(1, 4), GhPattern(2, 3)})};
    for (const HssSpec &spec : specs) {
        Rng rng(static_cast<std::uint64_t>(spec.totalSpan()) * 17 +
                spec.numRanks());
        // N = 1 and 13 leave every vector width a scalar tail, 16 none,
        // and 131 full vectors plus a tail; groups of 3 rows leave a
        // one-row trailing group.
        for (const std::int64_t n : {1, 13, 16, 131}) {
            const std::int64_t m = 7, k = spec.totalSpan() * 3;
            const int group_rows = 3;
            const auto [a, b] = laneKernelOperands(spec, m, k, n, rng);
            for (const bool compress_b : {false, true}) {
                const HandContext hc(a, spec, b, compress_b);
                const OperandBPass pass(hc.ctx);
                SimContext ctx = hc.ctx;
                ctx.b_pass = &pass;
                const auto runVariant = [&](LaneKernel kernel) {
                    RowGroupWorker worker(ctx, group_rows);
                    SimResult r{
                        DenseTensor(TensorShape({{"M", m}, {"N", n}})), {}};
                    for (std::int64_t row = 0; row < m; row += group_rows)
                        worker.runGroup(
                            row,
                            static_cast<int>(std::min<std::int64_t>(
                                group_rows, m - row)),
                            r.output, kernel);
                    r.stats = worker.stats();
                    return r;
                };
                const SimResult base = runVariant(variants.front().run);
                for (const float v : base.output.data()) {
                    infinite += std::isinf(v);
                    nans += std::isnan(v);
                    subnormals += std::fpclassify(v) == FP_SUBNORMAL;
                }
                for (const LaneKernelVariant &v : variants) {
                    if (!v.host_supported)
                        continue;
                    const SimResult r = runVariant(v.run);
                    const std::string at =
                        std::string(v.name) + " " + spec.str() +
                        (compress_b ? " comp_b" : " dense_b") +
                        " n=" + std::to_string(n);
                    ASSERT_EQ(r.output.data().size(),
                              base.output.data().size());
                    EXPECT_EQ(std::memcmp(r.output.data().data(),
                                          base.output.data().data(),
                                          base.output.data().size() *
                                              sizeof(float)),
                              0)
                        << at;
                    expectSameStats(r.stats, base.stats, at);
                }
            }
        }
    }
    // The corners were reached: infinite sums, inf - inf, and sums
    // small enough to round to a subnormal float.
    EXPECT_GT(infinite, 0);
    EXPECT_GT(nans, 0);
    EXPECT_GT(subnormals, 0);
}

TEST(LaneKernel, X86BuildsCompileEveryVariant)
{
    // Only the table reaches a specific variant, so a build that lost
    // one would quietly run narrower code: on x86-64 under GCC or
    // Clang the baseline, AVX2 and AVX-512F variants must all be there.
    const std::vector<LaneKernelVariant> &variants = laneKernelVariants();
    ASSERT_FALSE(variants.empty());
    EXPECT_STREQ(variants.front().name, "baseline");
    EXPECT_TRUE(variants.front().host_supported);
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    ASSERT_GE(variants.size(), 3u);
    EXPECT_STREQ(variants[1].name, "avx2");
    EXPECT_STREQ(variants[2].name, "avx512f");
#endif
    // Every worker runs the widest variant the host supports.
    LaneKernel widest = nullptr;
    for (const LaneKernelVariant &v : variants)
        if (v.host_supported)
            widest = v.run;
    EXPECT_EQ(laneKernel(), widest);
}

TEST(Simulator, AddsLanesThenPesInDatapathOrder)
{
    // Products of 2^56 and 1 round in double (2^56 + 1 == 2^56), so
    // these cases pin the addition order the datapath fixes: each PE
    // adds its lanes in order, then the row adds the PE sums in order.
    // Five equal rows, stepped one at a time and as one group.
    const float big = 0x1p56f;
    const auto run = [](const HssSpec &spec, const std::vector<float> &row,
                        int group_rows) {
        const std::int64_t m = 5, k = static_cast<std::int64_t>(row.size());
        DenseTensor a(TensorShape({{"M", m}, {"K", k}}));
        DenseTensor b(TensorShape({{"K", k}, {"N", 1}}));
        for (std::int64_t kk = 0; kk < k; ++kk) {
            b.set2(kk, 0, 1.0f);
            for (std::int64_t r = 0; r < m; ++r)
                a.set2(r, kk, row[static_cast<std::size_t>(kk)]);
        }
        MicrosimConfig cfg;
        cfg.group_rows = group_rows;
        return HighlightSimulator(cfg).run(a, spec, b).output;
    };
    for (const int group_rows : {1, 8}) {
        // One PE, lanes (2^56, 1, -2^56): (2^56 + 1) - 2^56 = 0.
        const DenseTensor lanes =
            run(HssSpec({GhPattern(3, 3)}), {big, 1.0f, -big}, group_rows);
        // PE sums 1 and (2^56 - 2^56): 1 + 0 = 1, where adding the
        // lanes straight into the row sum would give 0.
        const DenseTensor pes =
            run(HssSpec({GhPattern(2, 2), GhPattern(2, 2)}),
                {1.0f, 0.0f, big, -big}, group_rows);
        for (std::int64_t r = 0; r < 5; ++r) {
            EXPECT_EQ(lanes.at2(r, 0), 0.0f) << "group_rows=" << group_rows;
            EXPECT_EQ(pes.at2(r, 0), 1.0f) << "group_rows=" << group_rows;
        }
    }
}

/**
 * DSSO (Sec 7.5) functional property across the supported B degrees:
 * exact results, block-level time skipping, and the Fig 17 speed ratio
 * vs. HighLight's gating-only datapath.
 */
class DssoSimProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(DssoSimProperty, ExactResultsAndFig17SpeedRatio)
{
    const int hb = GetParam();
    const GhPattern a_rank0(2, 4);
    const GhPattern b_rank1(2, hb);

    Rng rng(static_cast<std::uint64_t>(hb));
    const std::int64_t m = 3;
    const std::int64_t k = 4 * hb * 2; // two rank-1 groups
    const std::int64_t n = 5;

    // A: C1(dense)->C0(2:4); B: C1(2:hb)->C0(dense).
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng),
        HssSpec({a_rank0}));
    const auto b = hssSparsifyColumns(
        randomDense(TensorShape({{"K", k}, {"N", n}}), rng),
        HssSpec({GhPattern(4, 4), b_rank1}));

    const DssoSimulator dsso(2);
    const auto r = dsso.run(a, a_rank0, b, b_rank1);
    EXPECT_LT(r.output.maxAbsDiff(referenceGemm(a, b)), 1e-3);

    // Block-level skipping: exactly Gb of every Hb blocks processed.
    const std::int64_t blocks = k / 4;
    EXPECT_EQ(r.stats.b_blocks_processed,
              m * n * (blocks / hb) * b_rank1.g);
    EXPECT_EQ(r.stats.b_blocks_skipped,
              m * n * (blocks - (blocks / hb) * b_rank1.g));

    // Fig 17: speed vs the HighLight datapath (same A, B only gated):
    // HighLight's cycles are independent of B sparsity. The dense
    // rank-1 is expressed as 2:2 so both datapaths use two PEs.
    const HssSpec hl_spec({a_rank0, GhPattern(2, 2)});
    const auto hl = HighlightSimulator().run(a, hl_spec, b);
    EXPECT_LT(hl.output.maxAbsDiff(referenceGemm(a, b)), 1e-3);
    const double ratio = static_cast<double>(hl.stats.cycles) /
                         static_cast<double>(r.stats.cycles);
    EXPECT_NEAR(ratio, hb / 2.0, 1e-9) << "Hb=" << hb;
}

INSTANTIATE_TEST_SUITE_P(AllBDegrees, DssoSimProperty,
                         ::testing::Values(2, 4, 6, 8));

TEST(DssoSim, RejectsNonConformingOperands)
{
    Rng rng(3);
    const GhPattern a_rank0(2, 4);
    const GhPattern b_rank1(2, 4);
    // Dense A violates C0(2:4).
    const auto a_bad =
        randomDense(TensorShape({{"M", 2}, {"K", 32}}), rng);
    const auto b_ok = hssSparsifyColumns(
        randomDense(TensorShape({{"K", 32}, {"N", 2}}), rng),
        HssSpec({GhPattern(4, 4), b_rank1}));
    EXPECT_THROW(DssoSimulator().run(a_bad, a_rank0, b_ok, b_rank1),
                 FatalError);
    // Dense B violates C1(2:4).
    const auto a_ok = hssSparsify(a_bad, HssSpec({a_rank0}));
    const auto b_bad =
        randomDense(TensorShape({{"K", 32}, {"N", 2}}), rng);
    EXPECT_THROW(DssoSimulator().run(a_ok, a_rank0, b_bad, b_rank1),
                 FatalError);
}

TEST(DssoSim, RejectsRankZeroBlocksBeyondEightBitOffsets)
{
    // A's rank-0 offsets are std::uint8_t, so H0 may be at most 256; a
    // larger H0 used to wrap a nonzero at position 300 to 44.
    const GhPattern a_rank0(1, 512);
    const GhPattern b_rank1(1, 1);
    DenseTensor a(TensorShape({{"M", 1}, {"K", 512}}));
    a.set2(0, 300, 1.0f);
    DenseTensor b(TensorShape({{"K", 512}, {"N", 1}}));
    b.set2(300, 0, 2.0f);
    EXPECT_THROW(DssoSimulator(1).run(a, a_rank0, b, b_rank1),
                 FatalError);
}

TEST(DssoSim, PerfectWorkloadBalanceAcrossPes)
{
    // Alternating dense ranks give dense-sparse intersections that are
    // perfectly balanced (Sec 7.5): with Gb = num_pes, every step
    // occupies every PE, so mux selections split evenly.
    Rng rng(11);
    const GhPattern a_rank0(2, 4);
    const GhPattern b_rank1(2, 4);
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", 2}, {"K", 64}}), rng),
        HssSpec({a_rank0}));
    const auto b = hssSparsifyColumns(
        randomDense(TensorShape({{"K", 64}, {"N", 4}}), rng),
        HssSpec({GhPattern(4, 4), b_rank1}));
    const auto r = DssoSimulator(2).run(a, a_rank0, b, b_rank1);
    // Every cycle engages both PEs (2 blocks per group, 2 PEs).
    EXPECT_EQ(r.stats.pe.mux_selects, r.stats.cycles * 2 * 2);
}

TEST(Simulator, VfmuSkipsFetchesWithCompressedB)
{
    // With 75% sparse B the compressed stream often has enough valid
    // words buffered to skip GLB fetches entirely on some steps.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(25);
    const std::int64_t m = 1, k = 64, n = 16;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b = randomUnstructured(
        TensorShape({{"K", k}, {"N", n}}), 0.75, rng);
    MicrosimConfig cfg;
    cfg.compress_b = true;
    const auto result = HighlightSimulator(cfg).run(a, spec, b);
    EXPECT_GT(result.stats.vfmu.skipped_fetches, 0);
}

} // namespace
} // namespace highlight
