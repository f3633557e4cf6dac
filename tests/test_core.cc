/**
 * @file
 * Unit tests for the core API: the evaluator, the design-space
 * explorer (Fig 6), and the Pareto utilities (Fig 15).
 */

#include <gtest/gtest.h>

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

TEST(Explorer, LatenciesEqualDensities)
{
    const DesignSpaceExplorer ex;
    const auto ss = ex.analyze(DesignSpaceExplorer::designSS());
    const auto lats = ss.latencies();
    ASSERT_EQ(lats.size(), ss.degrees.size());
    for (std::size_t i = 0; i < lats.size(); ++i)
        EXPECT_DOUBLE_EQ(lats[i], ss.degrees[i].density);
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
    const auto frontier = paretoFrontier(pts);
    // b dominates c and a; d survives on x; b survives.
    ASSERT_EQ(frontier.size(), 2u);
    EXPECT_EQ(pts[frontier[0]].label, "d");
    EXPECT_EQ(pts[frontier[1]].label, "b");
    EXPECT_TRUE(onFrontier(pts, 1));
    EXPECT_FALSE(onFrontier(pts, 0));
}

TEST(Pareto, DuplicatePointsBothOnFrontier)
{
    const std::vector<ParetoPoint> pts = {{1.0, 1.0, "a"},
                                          {1.0, 1.0, "b"}};
    EXPECT_EQ(paretoFrontier(pts).size(), 2u);
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
    const auto frontier = paretoFrontier(points);
    bool highlight_on_frontier = false;
    for (std::size_t idx : frontier)
        highlight_on_frontier |= is_highlight[idx];
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
