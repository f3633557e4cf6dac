/**
 * @file
 * Unit tests for the core API: the evaluator, the design-space
 * explorer (Fig 6), and the Pareto utilities (Fig 15).
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/logging.hh"
#include "core/evaluator.hh"
#include "core/explorer.hh"
#include "core/pareto.hh"
#include "dnn/deit.hh"
#include "dnn/resnet50.hh"
#include "dnn/transformer.hh"

namespace highlight
{
namespace
{

TEST(Evaluator, DesignLineup)
{
    const Evaluator ev;
    EXPECT_EQ(ev.designs().size(), 6u);
    EXPECT_EQ(ev.standardLineup().size(), 5u);
    EXPECT_EQ(ev.design("HighLight").name(), "HighLight");
    EXPECT_THROW(ev.design("nonexistent"), FatalError);
}

TEST(Evaluator, RunAppliesSwapHarness)
{
    const Evaluator ev;
    GemmWorkload w;
    w.name = "swap-check";
    w.m = w.k = w.n = 1024;
    w.a = OperandSparsity::dense();
    w.b = OperandSparsity::structured(HssSpec({GhPattern(2, 4)}));
    const auto r = ev.run("STC", w);
    ASSERT_TRUE(r.supported);
    EXPECT_NE(r.note.find("swapped"), std::string::npos);
}

TEST(Evaluator, BuildDnnWorkloadsPatterns)
{
    const Evaluator ev;
    const auto model = resnet50Model();

    DnnScenario hss{"HighLight", PruningApproach::Hss, 0.75};
    const auto suite = ev.buildDnnWorkloads(model, hss);
    ASSERT_EQ(suite.size(), model.layers.size());
    // Prunable layers carry the sparsest supported HSS >= target.
    EXPECT_EQ(suite[0].a.kind, PatternKind::Hss);
    EXPECT_NEAR(suite[0].a.density, 0.25, 1e-12);
    // Activations carry the model's density.
    EXPECT_EQ(suite[0].b.kind, PatternKind::Unstructured);
    EXPECT_NEAR(suite[0].b.density, 0.4, 1e-12);
}

TEST(Evaluator, BuildDnnWorkloadsOneRankForStc)
{
    const Evaluator ev;
    const auto model = resnet50Model();
    DnnScenario stc{"STC", PruningApproach::OneRankGh, 0.5};
    const auto suite = ev.buildDnnWorkloads(model, stc);
    EXPECT_EQ(suite[0].a.kind, PatternKind::Hss);
    EXPECT_EQ(suite[0].a.hss.rank(0).str(), "2:4");
}

TEST(Evaluator, BuildDnnWorkloadsChannelShrinksM)
{
    const Evaluator ev;
    const auto model = resnet50Model();
    DnnScenario ch{"TC", PruningApproach::Channel, 0.5};
    const auto suite = ev.buildDnnWorkloads(model, ch);
    EXPECT_EQ(suite[0].a.kind, PatternKind::Dense);
    EXPECT_EQ(suite[0].m, model.layers[0].m / 2);
}

TEST(Evaluator, BuildDnnWorkloadsRejectsSparsityOutsideZeroToOne)
{
    // Unchecked, each of these builds layers without a word: dense ones
    // for NaN and -0.5, M = 1 for channel pruning at 1.5, the sparsest
    // supported spec for HSS at 1.2 and C0(1:8) for S2TA at 1.7.
    const Evaluator ev;
    const auto model = resnet50Model();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const DnnScenario bad[] = {
        {"HighLight", PruningApproach::Hss, nan},
        {"DSTC", PruningApproach::Unstructured, -0.5},
        {"TC", PruningApproach::Channel, 1.5},
        {"HighLight", PruningApproach::Hss, 1.2},
        {"S2TA", PruningApproach::OneRankGh, 1.7},
        {"STC", PruningApproach::OneRankGh, 1.0},
    };
    for (const DnnScenario &sc : bad) {
        const std::string value =
            msgOf("sparsity ", sc.weight_sparsity, " outside");
        try {
            ev.buildDnnWorkloads(model, sc);
            ADD_FAILURE() << value << " was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
                << e.what();
        }
    }
}

TEST(Evaluator, RunDnnRejectsNanSparsity)
{
    // Unchecked, a NaN reports a dense ResNet-50 with zero accuracy loss.
    const Evaluator ev;
    try {
        ev.runDnn(resnet50Model(), DnnName::ResNet50,
                  {"HighLight", PruningApproach::Hss,
                   std::numeric_limits<double>::quiet_NaN()});
        ADD_FAILURE() << "a NaN sparsity was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("sparsity nan outside"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Evaluator, RunDnnAggregates)
{
    const Evaluator ev;
    const auto model = resnet50Model();
    DnnScenario dense{"TC", PruningApproach::Dense, 0.0};
    const auto r = ev.runDnn(model, DnnName::ResNet50, dense);
    ASSERT_TRUE(r.supported);
    EXPECT_EQ(r.per_layer.size(), model.layers.size());
    EXPECT_GT(r.total_cycles, 0.0);
    EXPECT_GT(r.total_energy_pj, 0.0);
    EXPECT_DOUBLE_EQ(r.accuracy_loss, 0.0);
    EXPECT_GT(r.edp(), 0.0);
}

TEST(Evaluator, HighlightBeatsTcOnPrunedResnet)
{
    const Evaluator ev;
    const auto model = resnet50Model();
    const auto r_tc = ev.runDnn(model, DnnName::ResNet50,
                                {"TC", PruningApproach::Dense, 0.0});
    const auto r_hl = ev.runDnn(model, DnnName::ResNet50,
                                {"HighLight", PruningApproach::Hss,
                                 0.75});
    ASSERT_TRUE(r_tc.supported);
    ASSERT_TRUE(r_hl.supported);
    EXPECT_LT(r_hl.edp(), r_tc.edp());
}

TEST(Evaluator, S2taFailsOnAttentionModels)
{
    // Fig 15: S2TA cannot process the purely dense attention GEMMs.
    const Evaluator ev;
    const auto r = ev.runDnn(transformerBigModel(),
                             DnnName::TransformerBig,
                             {"S2TA", PruningApproach::OneRankGh, 0.5});
    EXPECT_FALSE(r.supported);
    EXPECT_FALSE(r.note.empty());
}

TEST(Evaluator, S2taRunsPrunedResnet)
{
    const Evaluator ev;
    const auto r = ev.runDnn(resnet50Model(), DnnName::ResNet50,
                             {"S2TA", PruningApproach::OneRankGh, 0.5});
    EXPECT_TRUE(r.supported) << r.note;
}

TEST(Explorer, Fig6DesignsCoverSameDegrees)
{
    const DesignSpaceExplorer ex;
    const auto s = ex.analyze(DesignSpaceExplorer::designS());
    const auto ss = ex.analyze(DesignSpaceExplorer::designSS());
    EXPECT_EQ(s.degrees.size(), 15u);
    EXPECT_EQ(ss.degrees.size(), 15u);
    EXPECT_EQ(s.hmax_per_rank, std::vector<int>({16}));
    EXPECT_EQ(ss.hmax_per_rank, std::vector<int>({4, 8}));
    // Fig 6(b): SS has > 2x lower muxing overhead.
    EXPECT_GT(static_cast<double>(s.total_mux2) /
                  static_cast<double>(ss.total_mux2),
              2.0);
}

TEST(Explorer, RankAblationMoreRanksLowerTax)
{
    // Sec 5.3 takeaway: for the same degree coverage, more ranks means
    // smaller per-rank Hmax and lower mux tax.
    const DesignSpaceExplorer ex;
    const auto reports = ex.rankAblation(15, 0.125);
    ASSERT_GE(reports.size(), 2u);
    EXPECT_LT(reports[1].total_mux2, reports[0].total_mux2);
    for (const auto &r : reports) {
        EXPECT_GE(r.degrees.size(), 15u);
        EXPECT_LE(r.degrees.back().density, 0.125 + 1e-12);
    }
}

TEST(Pareto, FrontierBasics)
{
    const std::vector<ParetoPoint> pts = {
        {1.0, 1.0, "a"}, // dominated by c
        {0.5, 0.8, "b"},
        {0.9, 0.9, "c"},
        {0.2, 2.0, "d"},
    };
    // b dominates c and a; d survives on x; b survives.
    EXPECT_EQ(frontierMask(pts),
              (std::vector<bool>{false, true, false, true}));
}

TEST(Pareto, DuplicatePointsBothOnFrontier)
{
    const std::vector<ParetoPoint> pts = {{1.0, 1.0, "a"},
                                          {1.0, 1.0, "b"}};
    EXPECT_EQ(frontierMask(pts), (std::vector<bool>{true, true}));
}

TEST(Pareto, HighlightOnResnetFrontier)
{
    // The Fig 15 claim, reproduced end to end for ResNet50: HighLight
    // points sit on the EDP-accuracy Pareto frontier.
    const Evaluator ev;
    const auto model = resnet50Model();

    std::vector<ParetoPoint> points;
    std::vector<bool> is_highlight;
    auto add = [&](const DnnScenario &sc, DnnName nm) {
        const auto r = ev.runDnn(model, nm, sc);
        if (r.supported) {
            points.push_back({r.accuracy_loss, r.edp(), sc.design});
            is_highlight.push_back(sc.design == "HighLight");
        }
    };
    add({"TC", PruningApproach::Dense, 0.0}, DnnName::ResNet50);
    add({"STC", PruningApproach::OneRankGh, 0.5}, DnnName::ResNet50);
    add({"S2TA", PruningApproach::OneRankGh, 0.5}, DnnName::ResNet50);
    for (double s : {0.5, 0.6, 0.7, 0.8})
        add({"DSTC", PruningApproach::Unstructured, s},
            DnnName::ResNet50);
    for (double s : {0.5, 0.625, 0.75})
        add({"HighLight", PruningApproach::Hss, s}, DnnName::ResNet50);

    // HighLight contributes to the frontier (its sparsest point wins
    // the low-EDP end outright in the paper and here)...
    const auto on_frontier = frontierMask(points);
    bool highlight_on_frontier = false;
    for (std::size_t i = 0; i < points.size(); ++i)
        highlight_on_frontier |= on_frontier[i] && is_highlight[i];
    EXPECT_TRUE(highlight_on_frontier);
    // ...and no HighLight point is dominated by a dense or one-rank
    // structured competitor (only unstructured DSTC trades blows at
    // mid sparsity, within the model tolerances of FIDELITY.md).
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!is_highlight[i])
            continue;
        for (std::size_t j = 0; j < points.size(); ++j) {
            if (points[j].label == "TC" || points[j].label == "STC" ||
                points[j].label == "S2TA") {
                const bool dominated =
                    points[j].x <= points[i].x &&
                    points[j].y <= points[i].y;
                EXPECT_FALSE(dominated)
                    << points[i].label << " dominated by "
                    << points[j].label;
            }
        }
    }
}

} // namespace
} // namespace highlight
