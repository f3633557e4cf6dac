/**
 * @file
 * Reproduces Fig 15: the EDP-vs-accuracy-loss relationship for
 * ResNet50, Transformer-Big and DeiT-small under each co-design
 * approach, with the Pareto frontier marked. The paper's claim:
 * HighLight always sits on the frontier; S2TA cannot run the
 * attention models; DSTC can be worse than dense on the denser models.
 *
 * Every runDnn call fans its layers out over the parallel runtime and
 * dedupes repeated layer shapes through the eval cache. The tables
 * come from one sweep of every candidate on every model.
 */

#include <sstream>

#include "artifact_util.hh"
#include "artifacts.hh"
#include "core/pareto.hh"
#include "dnn/deit.hh"
#include "dnn/resnet50.hh"
#include "dnn/transformer.hh"

namespace highlight
{

namespace
{

std::string
labelOf(const DnnScenario &c)
{
    std::string label = c.design;
    if (c.approach == PruningApproach::Channel)
        label += " (channel)";
    return label;
}

struct ModelCase
{
    DnnModel model;
    DnnName nm;
};

std::vector<ModelCase>
modelCases()
{
    return {{resnet50Model(), DnnName::ResNet50},
            {transformerBigModel(), DnnName::TransformerBig},
            {deitSmallModel(), DnnName::DeitSmall}};
}

/**
 * Print one model's table. Its sweep results start at
 * `results[first]`, one per candidate; the first candidate is the
 * dense TC baseline.
 */
void
printModel(std::ostream &out, const DnnModel &model,
           const std::vector<DnnScenario> &candidates,
           const std::vector<DnnEvalResult> &results, std::size_t first)
{
    const DnnEvalResult &tc = results[first];

    std::vector<ParetoPoint> points;
    std::vector<std::string> rows_design;
    std::vector<double> rows_sparsity;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const DnnScenario &c = candidates[i];
        const DnnEvalResult &r = results[first + i];
        if (!r.supported)
            continue;
        points.push_back(
            {r.accuracy_loss, r.edp() / tc.edp(), labelOf(c)});
        rows_design.push_back(labelOf(c));
        rows_sparsity.push_back(c.weight_sparsity);
    }

    // One batched frontier sweep instead of a per-row recomputation.
    const auto mask = frontierMask(points);

    TextTable t("Fig 15: " + model.name +
                " (EDP normalized to dense TC)");
    t.setHeader({"design", "weight sparsity", "accuracy loss",
                 "norm. EDP", "on Pareto frontier"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        t.addRow({rows_design[i], TextTable::fmt(rows_sparsity[i], 3),
                  TextTable::fmt(points[i].x, 2),
                  TextTable::fmt(points[i].y, 3),
                  mask[i] ? "YES" : ""});
    }
    t.print(out);

    bool s2ta_supported = false;
    for (const auto &d : rows_design)
        s2ta_supported |= d == "S2TA";
    if (!s2ta_supported)
        out << "S2TA: unsupported on " << model.name
            << " (cannot process the purely dense attention GEMMs)\n";
    out << "\n";
}

} // namespace

ArtifactReport
runFig15()
{
    std::ostringstream out;

    const Evaluator ev;
    const auto candidates = fig15Candidates();
    const auto models = modelCases();
    // Model-major: every candidate on the first model, then the next.
    std::vector<DnnEvalResult> results;
    for (const auto &[model, nm] : models) {
        for (const auto &c : candidates)
            results.push_back(ev.runDnn(model, nm, c));
    }
    for (std::size_t m = 0; m < models.size(); ++m)
        printModel(out, models[m].model, candidates, results,
                   m * candidates.size());

    out << "Expected shape (paper Fig 15): HighLight on the frontier for "
           "every model;\nS2TA absent from the attention models; DSTC "
           "worse than dense at low sparsity\non the denser models.\n";
    return {out.str(), dnnResultsJson(results)};
}

} // namespace highlight
