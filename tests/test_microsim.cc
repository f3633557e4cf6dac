/**
 * @file
 * Functional tests for the cycle-level micro-simulator (paper Sec 6):
 * exact GEMM results across HSS degrees, cycle-count formulas, gating
 * behaviour, VFMU fetch skipping, and the compression unit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "format/hierarchical_cp.hh"
#include "format/operand_b.hh"
#include "microsim/compression_unit.hh"
#include "microsim/dsso_sim.hh"
#include "microsim/glb.hh"
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

TEST(Pe, GatedStepCountsLikeAStepOnAnAllZeroBlock)
{
    // Real lanes, a dummy lane and an offset past the block: every one
    // gates against an all-zero block.
    const std::vector<float> values = {1.5f, 0.0f, -2.0f, 4.0f};
    const std::vector<std::uint8_t> offsets = {0, 3, 1, 7};
    const std::vector<float> zeros(4, 0.0f);
    MicroPe stepped(4), charged(4);
    stepped.loadBlock(values, offsets);
    charged.loadBlock(values, offsets);
    for (int i = 0; i < 3; ++i) {
        const double psum = stepped.step(zeros);
        EXPECT_EQ(psum, 0.0);
        EXPECT_FALSE(std::signbit(psum));
        charged.gatedStep();
    }
    EXPECT_EQ(charged.stats().mac_ops, stepped.stats().mac_ops);
    EXPECT_EQ(charged.stats().gated_macs, stepped.stats().gated_macs);
    EXPECT_EQ(charged.stats().mux_selects, stepped.stats().mux_selects);
    EXPECT_EQ(charged.stats().gated_macs, 12);
}

TEST(CompressionUnit, ReluThenCompressRoundTrip)
{
    CompressionUnit cu(4, 3);
    std::vector<float> stream = {1.0f, -2.0f, 0.0f, 3.0f, -1.0f, -1.0f,
                                 0.0f, 5.0f, 2.0f, 0.0f, 0.0f, -4.0f};
    const auto compressed = cu.compress(stream);
    const auto back = compressed.decompress();
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const float expected = stream[i] > 0.0f ? stream[i] : 0.0f;
        EXPECT_FLOAT_EQ(back[i], expected);
    }
    EXPECT_EQ(cu.stats().nonzeros_out, 4);
    EXPECT_EQ(cu.stats().values_in, 12);
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
 * Group-size determinism: the row-group worker's shared operand-B pass
 * with restream-equivalent accounting must leave outputs AND every
 * SimStats counter byte-identical to ungrouped serial execution, at
 * every group size x pool size x compress_b. The ungrouped serial run
 * (group_rows=1, one thread) is the reference: it restreams B per row
 * exactly like the pre-row-group implementation.
 */
class GroupDeterminism : public ::testing::TestWithParam<bool>
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(0); }
};

TEST_P(GroupDeterminism, MatchesUngroupedSerialAtEveryGroupAndPoolSize)
{
    const bool compress_b = GetParam();
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
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

    for (const int group_rows : {1, 2, 4, 8}) {
        for (const int threads :
             {1, 2, ThreadPool::defaultThreadCount()}) {
            ThreadPool::setGlobalThreads(threads);
            MicrosimConfig cfg;
            cfg.compress_b = compress_b;
            cfg.group_rows = group_rows;
            const auto r = HighlightSimulator(cfg).run(a, spec, b);
            const std::string at = "group_rows=" +
                                   std::to_string(group_rows) +
                                   " threads=" +
                                   std::to_string(threads);
            ASSERT_EQ(r.output.data().size(),
                      base.output.data().size());
            EXPECT_EQ(
                std::memcmp(r.output.data().data(),
                            base.output.data().data(),
                            base.output.data().size() * sizeof(float)),
                0)
                << at;
            const SimStats &s = r.stats, &g = base.stats;
            EXPECT_EQ(s.cycles, g.cycles) << at;
            EXPECT_EQ(s.a_words_loaded, g.a_words_loaded) << at;
            EXPECT_EQ(s.psum_updates, g.psum_updates) << at;
            EXPECT_EQ(s.dummy_blocks, g.dummy_blocks) << at;
            EXPECT_EQ(s.glb_b.row_fetches, g.glb_b.row_fetches) << at;
            EXPECT_EQ(s.glb_b.words_read, g.glb_b.words_read) << at;
            EXPECT_EQ(s.vfmu.shifts, g.vfmu.shifts) << at;
            EXPECT_EQ(s.vfmu.skipped_fetches, g.vfmu.skipped_fetches)
                << at;
            EXPECT_EQ(s.vfmu.words_out, g.vfmu.words_out) << at;
            EXPECT_EQ(s.pe.mac_ops, g.pe.mac_ops) << at;
            EXPECT_EQ(s.pe.gated_macs, g.pe.gated_macs) << at;
            EXPECT_EQ(s.pe.mux_selects, g.pe.mux_selects) << at;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(DenseAndCompressedB, GroupDeterminism,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "comp_b" : "dense_b";
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
