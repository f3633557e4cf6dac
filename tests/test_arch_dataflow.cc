/**
 * @file
 * Unit tests for the architecture specs (Table 4) and the canonical
 * tiling.
 */

#include <gtest/gtest.h>

#include <limits>

#include "arch/arch_spec.hh"
#include "common/logging.hh"
#include "dataflow/mapping.hh"

namespace highlight
{
namespace
{

TEST(Arch, Table4ResourceStrings)
{
    EXPECT_EQ(tcArch().glbString(), "320KB");
    EXPECT_EQ(stcArch().glbString(), "256 + 64KB");
    EXPECT_EQ(dstcArch().glbString(), "256 + 64KB");
    EXPECT_EQ(s2taArch().glbString(), "256 + 64KB");
    EXPECT_EQ(highlightArch().glbString(), "256 + 64KB");

    EXPECT_EQ(tcArch().rfString(), "4 x 2KB");
    EXPECT_EQ(s2taArch().rfString(), "64 x 64B");
    EXPECT_EQ(highlightArch().rfString(), "4 x 2KB");

    EXPECT_EQ(tcArch().computeString(), "4 x 256");
    EXPECT_EQ(s2taArch().computeString(), "64 x 16");
    EXPECT_EQ(highlightArch().computeString(), "4 x 256");
}

TEST(Arch, AllDesignsHave1024Macs)
{
    EXPECT_EQ(tcArch().numMacs(), 1024);
    EXPECT_EQ(stcArch().numMacs(), 1024);
    EXPECT_EQ(dstcArch().numMacs(), 1024);
    EXPECT_EQ(s2taArch().numMacs(), 1024);
    EXPECT_EQ(highlightArch().numMacs(), 1024);
    EXPECT_EQ(dssoArch().numMacs(), 1024);
}

TEST(Arch, HighlightHasG0MacsPerPe)
{
    const auto a = highlightArch();
    EXPECT_EQ(a.macs_per_pe, 2);
    EXPECT_EQ(a.pes_per_array, 128);
    EXPECT_EQ(a.num_arrays, 4);
}

TEST(Arch, SpatialOrganization)
{
    const auto a = tcArch();
    EXPECT_EQ(a.spatialM() * a.spatial_k, a.numMacs());
    EXPECT_EQ(a.glbDataWords(), 320 * 1024 / 2);
}

TEST(Tiling, DenseBaselineTiles)
{
    const auto t = computeTiling(tcArch(), 1024, 1024, 1024, 1.0, 1.0);
    // A share = 40% of 160K words / 1024 per row = 64 rows.
    EXPECT_EQ(t.m_tile, 64);
    EXPECT_EQ(t.m_passes, 16);
    EXPECT_FALSE(t.a_resident);
}

TEST(Tiling, CompressionWidensTiles)
{
    const auto dense = computeTiling(highlightArch(), 1024, 1024, 1024,
                                     1.0, 1.0);
    const auto sparse = computeTiling(highlightArch(), 1024, 1024,
                                      1024, 0.25, 1.0);
    // A 4x smaller stored A quadruples the resident rows and cuts the
    // B re-fetch passes accordingly.
    EXPECT_EQ(sparse.m_tile, dense.m_tile * 4);
    EXPECT_LT(sparse.m_passes, dense.m_passes);
}

TEST(Tiling, SmallWorkloadFullyResident)
{
    const auto t = computeTiling(tcArch(), 64, 256, 64, 1.0, 1.0);
    EXPECT_TRUE(t.a_resident);
    EXPECT_TRUE(t.b_resident);
    EXPECT_EQ(t.m_passes, 1);
    EXPECT_EQ(t.n_passes, 1);
}

TEST(Tiling, RejectsBadInputs)
{
    EXPECT_THROW(computeTiling(tcArch(), 0, 1, 1, 1.0, 1.0),
                 FatalError);
    EXPECT_THROW(computeTiling(tcArch(), 1, 1, 1, 0.0, 1.0),
                 FatalError);
    EXPECT_THROW(computeTiling(tcArch(), 1, 1, 1, 1.0, 1.5),
                 FatalError);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(computeTiling(tcArch(), 1, 1, 1, nan, 1.0), FatalError);
    EXPECT_THROW(computeTiling(tcArch(), 1, 1, 1, 1.0, nan), FatalError);
}

TEST(Tiling, TileNeverExceedsWorkload)
{
    const auto t = computeTiling(tcArch(), 8, 64, 8, 1.0, 1.0);
    EXPECT_LE(t.m_tile, 8);
    EXPECT_LE(t.n_tile, 8);
}

} // namespace
} // namespace highlight
