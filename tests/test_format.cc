/**
 * @file
 * Unit and property tests for the compression formats: hierarchical CP
 * (Fig 9), operand-B three-level metadata (Fig 12(a)) and bitmask.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "format/bitmask.hh"
#include "format/hierarchical_cp.hh"
#include "format/operand_b.hh"
#include "runtime/thread_pool.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

namespace highlight
{
namespace
{

TEST(BitsFor, CeilLog2WithMinimumOne)
{
    EXPECT_EQ(bitsFor(1), 1);
    EXPECT_EQ(bitsFor(2), 1);
    EXPECT_EQ(bitsFor(3), 2);
    EXPECT_EQ(bitsFor(4), 2);
    EXPECT_EQ(bitsFor(8), 3);
    EXPECT_EQ(bitsFor(9), 4);
    EXPECT_EQ(bitsFor(16), 4);
}

TEST(HierarchicalCp, Fig9WorkedExample)
{
    // Fig 9: a C1(2:4)->C0(2:4) row of 16 values. Blocks 0 and 2 are
    // non-empty; block 0 holds {a@0, c@2}, block 2 holds {j@1, k@3}.
    std::vector<float> row(16, 0.0f);
    row[0] = 1.0f;  // a
    row[2] = 2.0f;  // c
    row[9] = 3.0f;  // j
    row[11] = 4.0f; // k
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    const HierarchicalCpRow cp(row.data(), 16, spec);

    // Rank-1 CPs: the non-empty blocks are at offsets 0 and 2.
    ASSERT_EQ(cp.offsets(1).size(), 2u);
    EXPECT_EQ(cp.offsets(1)[0], 0);
    EXPECT_EQ(cp.offsets(1)[1], 2);
    // Rank-0 CPs: positions within each block.
    ASSERT_EQ(cp.offsets(0).size(), 4u);
    EXPECT_EQ(cp.offsets(0)[0], 0);
    EXPECT_EQ(cp.offsets(0)[1], 2);
    EXPECT_EQ(cp.offsets(0)[2], 1);
    EXPECT_EQ(cp.offsets(0)[3], 3);
    // Data words = 16 * 0.25 = 4.
    EXPECT_EQ(cp.dataWords(), 4);
    // Round trip.
    EXPECT_EQ(cp.decompress(), row);
}

TEST(HierarchicalCp, PadsUnderOccupiedBlocksWithDummies)
{
    // Only one nonzero in one block: storage still carries the full
    // G-lane structure with zero-valued dummies.
    std::vector<float> row(16, 0.0f);
    row[5] = 9.0f;
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    const HierarchicalCpRow cp(row.data(), 16, spec);
    EXPECT_EQ(cp.dataWords(), 4);
    EXPECT_EQ(cp.decompress(), row);
}

TEST(HierarchicalCp, RejectsNonConformingRow)
{
    std::vector<float> row(16, 1.0f); // fully dense violates 2:4
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    EXPECT_THROW(HierarchicalCpRow(row.data(), 16, spec), FatalError);
}

TEST(HierarchicalCp, RejectsBadLength)
{
    std::vector<float> row(10, 0.0f);
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    EXPECT_THROW(HierarchicalCpRow(row.data(), 10, spec), FatalError);
}

TEST(HierarchicalCp, RejectsBlockSizesBeyondEightBitOffsets)
{
    // Offsets are stored as std::uint8_t, so H may be at most 256. A
    // larger H used to wrap silently: a nonzero at position 300 of an
    // H0 = 512 block decompressed to position 44.
    std::vector<float> row(512, 0.0f);
    row[300] = 1.0f;
    EXPECT_THROW(HierarchicalCpRow(row.data(), 512,
                                   HssSpec({GhPattern(1, 512)})),
                 FatalError);
    // Any rank: a wide rank-1 group is rejected the same way.
    std::vector<float> wide(2 * 300, 0.0f);
    wide[2 * 299] = 1.0f;
    EXPECT_THROW(
        HierarchicalCpRow(wide.data(), 600,
                          HssSpec({GhPattern(1, 2), GhPattern(1, 300)})),
        FatalError);

    // H = 256 is the largest block the offsets address exactly.
    std::vector<float> edge(256, 0.0f);
    edge[255] = 2.0f;
    const HierarchicalCpRow ok(edge.data(), 256,
                               HssSpec({GhPattern(1, 256)}));
    EXPECT_EQ(ok.offsets(0)[0], 255);
    EXPECT_EQ(ok.decompress(), edge);
}

TEST(HierarchicalCp, MetadataBitsFormula)
{
    // 16 cols, C1(2:4)->C0(2:4): one top group, 2 rank-1 entries of
    // 2 bits + 4 rank-0 entries of 2 bits = 12 bits.
    std::vector<float> row(16, 0.0f);
    row[0] = 1.0f;
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    const HierarchicalCpRow cp(row.data(), 16, spec);
    EXPECT_EQ(cp.metadataBits(), 4 * 2 + 2 * 2);
}

/** Round-trip across all HighLight-supported degrees. */
class CpRoundTrip : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CpRoundTrip, MatrixRoundTripsAndSizesMatch)
{
    const auto degrees = enumerateDegrees(highlightWeightSupport());
    const HssSpec spec = degrees[GetParam()].spec;
    Rng rng(GetParam());
    const std::int64_t cols = spec.totalSpan() * 3;
    const auto dense =
        randomDense(TensorShape({{"M", 5}, {"K", cols}}), rng);
    const auto sparse = hssSparsify(dense, spec);

    const HierarchicalCpMatrix cp(sparse, spec);
    EXPECT_TRUE(cp.decompress().equals(sparse));
    // Padded storage: exactly density * numel data words.
    EXPECT_EQ(cp.dataWords(),
              std::llround(spec.density() * 5 * cols));
    // Metadata overhead keeps the dense corner slightly below 1;
    // meaningful compression kicks in at 50% sparsity and beyond.
    EXPECT_GE(cp.compressionRatio(), 0.8);
    if (spec.density() <= 0.5)
        EXPECT_GE(cp.compressionRatio(), 1.3);
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, CpRoundTrip,
                         ::testing::Range<std::size_t>(0, 12));

TEST(HierarchicalCp, DenseSpecCompressionRatioBelowOne)
{
    // A dense "pattern" stores everything plus metadata: ratio < 1.
    Rng rng;
    const HssSpec spec({GhPattern(2, 2), GhPattern(4, 4)});
    const auto dense =
        randomDense(TensorShape({{"M", 2}, {"K", 16}}), rng);
    const HierarchicalCpMatrix cp(dense, spec);
    EXPECT_LT(cp.compressionRatio(), 1.0);
    EXPECT_TRUE(cp.decompress().equals(dense));
}

TEST(HierarchicalCp, ParallelCompressionByteIdenticalToSerial)
{
    // Matrix compression fans row-blocks out on the global pool; the
    // compressed payload must be byte-identical to the 1-thread run at
    // any pool size. 37 rows exercises a partial trailing row-block.
    const HssSpec spec({GhPattern(2, 4), GhPattern(4, 8)});
    Rng rng(53);
    const std::int64_t rows = 37, cols = spec.totalSpan() * 4;
    const auto sparse = hssSparsify(
        randomDense(TensorShape({{"M", rows}, {"K", cols}}), rng),
        spec);

    ThreadPool::setGlobalThreads(1);
    const HierarchicalCpMatrix serial(sparse, spec);
    for (const int threads : {2, ThreadPool::defaultThreadCount()}) {
        ThreadPool::setGlobalThreads(threads);
        const HierarchicalCpMatrix parallel(sparse, spec);
        ASSERT_EQ(parallel.numRows(), serial.numRows());
        for (std::int64_t r = 0; r < serial.numRows(); ++r) {
            const HierarchicalCpRow &a = serial.row(r);
            const HierarchicalCpRow &b = parallel.row(r);
            EXPECT_EQ(a.values(), b.values())
                << "row " << r << " threads=" << threads;
            for (std::size_t n = 0; n < spec.numRanks(); ++n) {
                EXPECT_EQ(a.offsets(n), b.offsets(n))
                    << "row " << r << " rank " << n
                    << " threads=" << threads;
            }
        }
        EXPECT_EQ(parallel.dataWords(), serial.dataWords());
        EXPECT_EQ(parallel.metadataBits(), serial.metadataBits());
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(HierarchicalCp, ScratchReuseMatchesFreshScratchRows)
{
    // One CpRowScratch reused across rows (the parallel workers'
    // steady state) must produce the same compression as a fresh
    // scratch per row — scratch is pure workspace, never state.
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    Rng rng(59);
    const std::int64_t rows = 6, cols = spec.totalSpan() * 3;
    const auto sparse = hssSparsify(
        randomDense(TensorShape({{"M", rows}, {"K", cols}}), rng),
        spec);
    const float *data = sparse.data().data();

    CpRowScratch reused;
    for (std::int64_t r = 0; r < rows; ++r) {
        const HierarchicalCpRow with_reuse(data + r * cols, cols, spec,
                                           reused);
        const HierarchicalCpRow fresh(data + r * cols, cols, spec);
        EXPECT_EQ(with_reuse.values(), fresh.values()) << "row " << r;
        for (std::size_t n = 0; n < spec.numRanks(); ++n)
            EXPECT_EQ(with_reuse.offsets(n), fresh.offsets(n))
                << "row " << r << " rank " << n;
    }
}

TEST(OperandB, Fig12WorkedExample)
{
    // Fig 12(a): geometry h0 = 4, h1 = 3 (C1(2:3) operand A). Three
    // rank-1 blocks with a total of 8 nonzeros in the first set.
    std::vector<float> stream = {
        // block 0: 3 nonzeros
        1.0f, 0.0f, 2.0f, 3.0f,
        // block 1: 2 nonzeros
        0.0f, 4.0f, 0.0f, 5.0f,
        // block 2: 3 nonzeros
        6.0f, 7.0f, 8.0f, 0.0f,
        // second set: all zero
        0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f,
        0.0f, 0.0f};
    const OperandBStream b(stream.data(), 24, 4, 3);

    ASSERT_EQ(b.setCounts().size(), 2u);
    EXPECT_EQ(b.setCounts()[0], 8); // Fig 12(b): shift of 8 at step 1
    EXPECT_EQ(b.setCounts()[1], 0);
    ASSERT_EQ(b.blockEnds().size(), 6u);
    EXPECT_EQ(b.blockEnds()[0], 3);
    EXPECT_EQ(b.blockEnds()[1], 5);
    EXPECT_EQ(b.blockEnds()[2], 8);
    EXPECT_EQ(b.dataWords(), 8);
    // Level-3 offsets of block 1's nonzeros: positions 1 and 3.
    EXPECT_EQ(b.offsets()[3], 1);
    EXPECT_EQ(b.offsets()[4], 3);
    EXPECT_EQ(b.decompress(), stream);
}

TEST(OperandB, RoundTripRandom)
{
    Rng rng;
    const auto t = randomUnstructured(TensorShape({{"K", 96}}), 0.6,
                                      rng);
    const OperandBStream b(t.data().data(), 96, 4, 3);
    const auto back = b.decompress();
    for (std::int64_t i = 0; i < 96; ++i)
        EXPECT_FLOAT_EQ(back[static_cast<std::size_t>(i)],
                        t.data()[static_cast<std::size_t>(i)]);
}

TEST(OperandB, DenseStreamKeepsEverything)
{
    Rng rng;
    const auto t = randomDense(TensorShape({{"K", 48}}), rng);
    const OperandBStream b(t.data().data(), 48, 4, 3);
    EXPECT_EQ(b.dataWords(), 48);
}

TEST(OperandB, RejectsBadLength)
{
    std::vector<float> v(10, 0.0f);
    EXPECT_THROW(OperandBStream(v.data(), 10, 4, 3), FatalError);
}

TEST(OperandB, RejectsBlockSizesBeyondEightBitOffsets)
{
    // Level-3 offsets are std::uint8_t: h0 > 256 used to wrap, so a
    // nonzero at position 300 of a 512-value block came back at 44.
    std::vector<float> v(512, 0.0f);
    v[300] = 1.0f;
    EXPECT_THROW(OperandBStream(v.data(), 512, 512, 1), FatalError);

    std::vector<float> edge(256, 0.0f);
    edge[255] = 3.0f;
    const OperandBStream ok(edge.data(), 256, 256, 1);
    ASSERT_EQ(ok.offsets().size(), 1u);
    EXPECT_EQ(ok.offsets()[0], 255);
    EXPECT_EQ(ok.decompress(), edge);
}

/**
 * The compressed operand B of a naive reference: one pass that appends
 * every nonzero, as the format was first built.
 */
struct NaiveOperandB
{
    std::vector<float> values;
    std::vector<std::uint8_t> offsets;
    std::vector<std::int64_t> block_ends;
    std::vector<std::int64_t> set_counts;

    NaiveOperandB(const std::vector<float> &data, int h0, int h1)
    {
        const std::int64_t nblocks =
            static_cast<std::int64_t>(data.size()) / h0;
        std::int64_t total = 0;
        for (std::int64_t b = 0; b < nblocks; ++b) {
            for (int i = 0; i < h0; ++i) {
                const float v = data[static_cast<std::size_t>(b * h0 + i)];
                if (v != 0.0f) {
                    values.push_back(v);
                    offsets.push_back(static_cast<std::uint8_t>(i));
                    ++total;
                }
            }
            block_ends.push_back(total);
        }
        for (std::int64_t s = 0; s < nblocks / h1; ++s) {
            const std::int64_t start =
                s == 0 ? 0
                       : block_ends[static_cast<std::size_t>(s * h1 - 1)];
            set_counts.push_back(
                block_ends[static_cast<std::size_t>((s + 1) * h1 - 1)] -
                start);
        }
    }
};

/** The bit patterns of `values`, so -0.0f, +0.0f and NaNs compare exactly. */
std::vector<std::uint32_t>
bitsOf(const std::vector<float> &values)
{
    std::vector<std::uint32_t> bits(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        std::memcpy(&bits[i], &values[i], sizeof(float));
    return bits;
}

TEST(OperandB, MatchesNaiveReferenceOverRandomStreams)
{
    // Random geometry and density, plus the corner streams: all zero,
    // fully dense, and ones holding -0.0f (a zero the format drops).
    Rng rng(1234);
    for (int trial = 0; trial < 400; ++trial) {
        const int h0 = static_cast<int>(
            trial % 10 == 0 ? rng.uniformInt(129, 256)
                            : rng.uniformInt(1, 16));
        const int h1 = static_cast<int>(rng.uniformInt(1, 8));
        const std::int64_t sets = rng.uniformInt(0, 12);
        const std::size_t len =
            static_cast<std::size_t>(sets * h0 * h1);
        const int kind = trial % 4; // random, zero, dense, signed zeros
        const double density = rng.uniform();
        std::vector<float> data(len, 0.0f);
        for (float &v : data) {
            const float x = static_cast<float>(rng.normal());
            if (kind == 0)
                v = rng.bernoulli(density) ? x : 0.0f;
            else if (kind == 2)
                v = x == 0.0f ? 1.0f : x;
            else if (kind == 3)
                v = rng.bernoulli(density) ? x : -0.0f;
        }
        SCOPED_TRACE("trial " + std::to_string(trial) +
                     " h0=" + std::to_string(h0) +
                     " h1=" + std::to_string(h1) +
                     " len=" + std::to_string(len));

        const OperandBStream b(data.data(),
                               static_cast<std::int64_t>(len), h0, h1);
        const NaiveOperandB ref(data, h0, h1);
        EXPECT_EQ(bitsOf(b.values()), bitsOf(ref.values));
        EXPECT_EQ(b.offsets(), ref.offsets);
        EXPECT_EQ(b.blockEnds(), ref.block_ends);
        EXPECT_EQ(b.setCounts(), ref.set_counts);
        EXPECT_EQ(b.dataWords(),
                  static_cast<std::int64_t>(ref.values.size()));
        if (kind == 1 || kind == 3) {
            for (float v : b.values())
                EXPECT_FALSE(v == 0.0f);
        }
        if (kind == 2) {
            EXPECT_EQ(b.dataWords(), static_cast<std::int64_t>(len));
        }
    }
}

TEST(OperandB, MetadataBitsPositiveWhenSparse)
{
    Rng rng;
    const auto t = randomUnstructured(TensorShape({{"K", 48}}), 0.5,
                                      rng);
    const OperandBStream b(t.data().data(), 48, 4, 3);
    EXPECT_GT(b.metadataBits(), 0);
}

TEST(Bitmask, RoundTripAndSizes)
{
    Rng rng;
    const auto t = randomUnstructured(TensorShape({{"K", 64}}), 0.7,
                                      rng);
    const BitmaskStream b(t.data().data(), 64);
    const auto back = b.decompress();
    for (std::int64_t i = 0; i < 64; ++i)
        EXPECT_FLOAT_EQ(back[static_cast<std::size_t>(i)],
                        t.data()[static_cast<std::size_t>(i)]);
    EXPECT_EQ(b.metadataBits(), 64); // 1 bit per dense element, always
    EXPECT_EQ(b.dataWords(), t.countNonzeros());
}

TEST(Bitmask, PopcountSpans)
{
    const std::vector<float> v = {1.0f, 0.0f, 2.0f, 0.0f, 0.0f, 3.0f};
    const BitmaskStream b(v.data(), 6);
    EXPECT_EQ(b.popcount(0, 6), 3);
    EXPECT_EQ(b.popcount(0, 3), 2);
    EXPECT_EQ(b.popcount(3, 5), 0);
    EXPECT_THROW(b.popcount(4, 2), PanicError);
}

} // namespace
} // namespace highlight
