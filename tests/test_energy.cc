/**
 * @file
 * Unit tests for the energy subsystem: component library scaling laws
 * and the muxing-overhead model (Fig 6(b), Fig 7).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/logging.hh"
#include "energy/components.hh"
#include "energy/mux_model.hh"

namespace highlight
{
namespace
{

TEST(Components, ReferencePointsMatchTech)
{
    const ComponentLibrary lib;
    EXPECT_DOUBLE_EQ(lib.macComputePj(), 1.0);
    EXPECT_DOUBLE_EQ(lib.rfAccessPj(2.0), 1.0);
    EXPECT_DOUBLE_EQ(lib.sramAccessPj(256.0), 6.0);
    EXPECT_DOUBLE_EQ(lib.dramAccessPj(), 200.0);
}

TEST(Components, GatedMacMuchCheaperThanCompute)
{
    const ComponentLibrary lib;
    EXPECT_LT(lib.macGatedPj() * 10.0, lib.macComputePj());
}

TEST(Components, SramEnergySqrtScaling)
{
    const ComponentLibrary lib;
    // Quadrupling capacity doubles the access energy.
    EXPECT_NEAR(lib.sramAccessPj(64.0) * 2.0, lib.sramAccessPj(256.0),
                1e-9);
    EXPECT_NEAR(lib.rfAccessPj(8.0), 2.0 * lib.rfAccessPj(2.0), 1e-9);
}

TEST(Components, MetadataProratedByFieldWidth)
{
    const ComponentLibrary lib;
    // An 8-bit field costs half of a 16-bit word access.
    EXPECT_NEAR(lib.metadataAccessPj(64.0, 8),
                lib.sramAccessPj(64.0) * 0.5, 1e-9);
    EXPECT_NEAR(lib.metadataAccessPj(64.0, 16), lib.sramAccessPj(64.0),
                1e-9);
}

TEST(Components, MuxCostLinearInH)
{
    const ComponentLibrary lib;
    // Sec 5.2 takeaway: tax grows ~linearly with Hmax.
    EXPECT_NEAR(lib.muxSelectPj(16) / lib.muxSelectPj(4), 5.0, 1e-9);
    EXPECT_NEAR(lib.muxAreaUm2(16) / lib.muxAreaUm2(4), 5.0, 1e-9);
    EXPECT_DOUBLE_EQ(lib.muxSelectPj(1), 0.0); // 1-to-1 is a wire
}

TEST(Components, RejectsBadInputs)
{
    const ComponentLibrary lib;
    EXPECT_THROW(lib.sramAccessPj(0.0), FatalError);
    EXPECT_THROW(lib.rfAccessPj(-1.0), FatalError);
    EXPECT_THROW(lib.muxSelectPj(0), FatalError);
    // A NaN capacity passes a `capacity_kb <= 0.0` guard.
    const double nan = std::nan("");
    for (const bool sram : {true, false}) {
        try {
            sram ? lib.sramAccessPj(nan) : lib.rfAccessPj(nan);
            ADD_FAILURE() << "a NaN capacity was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("capacity nan kB"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Components, BreakdownHelpers)
{
    std::vector<BreakdownEntry> b = {{"mac", 60.0}, {"saf", 40.0}};
    EXPECT_DOUBLE_EQ(breakdownTotal(b), 100.0);
    EXPECT_DOUBLE_EQ(breakdownShare(b, "saf"), 0.4);
    EXPECT_DOUBLE_EQ(breakdownShare(b, "missing"), 0.0);
}

TEST(MuxModel, TotalMux2CountsStages)
{
    const MuxModel m({{"rank0", 2, 4, 2}, {"rank1", 2, 8, 1}});
    // 2*2*(4-1) + 1*2*(8-1) = 12 + 14 = 26.
    EXPECT_EQ(m.totalMux2(), 26);
}

TEST(MuxModel, RejectsInvalidStage)
{
    EXPECT_THROW(MuxModel({{"bad", 0, 4, 1}}), FatalError);
    EXPECT_THROW(MuxModel({{"bad", 2, 0, 1}}), FatalError);
}

TEST(MuxModel, Fig6bSsHalvesMuxOverhead)
{
    // The Fig 6(b) claim: at equal degree coverage (15 degrees,
    // 0-87.5%), the two-rank design SS has > 2x lower muxing overhead
    // than the one-rank design S.
    const MuxModel s = buildHssMuxModel({2}, {16}, 2, 1);
    const MuxModel ss = buildHssMuxModel({2, 2}, {4, 8}, 2, 1);
    EXPECT_EQ(s.totalMux2(), 60);  // 2 PEs * 2 lanes * 15
    EXPECT_EQ(ss.totalMux2(), 26); // 12 (rank0) + 14 (rank1, shared)
    EXPECT_GT(static_cast<double>(s.totalMux2()) /
                  static_cast<double>(ss.totalMux2()),
              2.0);
    const ComponentLibrary lib;
    EXPECT_GT(s.areaUm2(lib) / ss.areaUm2(lib), 2.0);
    EXPECT_GT(s.energyPerStepPj(lib) / ss.energyPerStepPj(lib), 2.0);
}

TEST(MuxModel, Rank0ReplicatesPerPeRank1PerArray)
{
    const MuxModel m = buildHssMuxModel({2, 4}, {4, 8}, 128, 4);
    ASSERT_EQ(m.stages().size(), 2u);
    EXPECT_EQ(m.stages()[0].instances, 512); // 128 PEs * 4 arrays
    EXPECT_EQ(m.stages()[1].instances, 4);   // one site per array
}

TEST(MuxModel, BuildRejectsMismatchedRanks)
{
    EXPECT_THROW(buildHssMuxModel({2, 2}, {4}, 2, 1), FatalError);
    EXPECT_THROW(buildHssMuxModel({}, {}, 2, 1), FatalError);
    EXPECT_THROW(buildHssMuxModel({2}, {4}, 0, 1), FatalError);
}

TEST(MuxModel, EnergyPerStepMatchesManualSum)
{
    const ComponentLibrary lib;
    const MuxModel m({{"rank0", 2, 4, 3}});
    EXPECT_NEAR(m.energyPerStepPj(lib), 3 * 2 * lib.muxSelectPj(4),
                1e-12);
}

} // namespace
} // namespace highlight
