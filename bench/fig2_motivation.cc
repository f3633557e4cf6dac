/**
 * @file
 * Reproduces Fig 2: normalized EDP of TC, STC, DSTC and HighLight
 * running pruned Transformer-Big and pruned ResNet50 (all GEMM
 * layers), at comparable accuracy.
 *
 * Per the paper's setup: DNNs are structured-pruned for STC (2:4) and
 * HighLight (HSS), unstructured-pruned for DSTC, dense for TC, with
 * per-model sparsity chosen so accuracy stays within ~0.5%:
 * Transformer-Big prunes to ~50-60%, ResNet50 to 75-80%.
 */

#include <sstream>

#include "artifact_util.hh"
#include "artifacts.hh"
#include "dnn/resnet50.hh"
#include "dnn/transformer.hh"

namespace highlight
{

namespace
{

void
runModel(std::ostream &out, const Evaluator &ev, const DnnModel &model,
         DnnName nm, double structured_sparsity,
         double unstructured_sparsity,
         std::vector<DnnEvalResult> &all_results)
{
    const DnnScenario scenarios[] = {
        {"TC", PruningApproach::Dense, 0.0},
        {"STC", PruningApproach::OneRankGh,
         std::min(structured_sparsity, 0.5)},
        {"DSTC", PruningApproach::Unstructured, unstructured_sparsity},
        {"HighLight", PruningApproach::Hss, structured_sparsity},
    };

    DnnEvalResult tc_result =
        ev.runDnn(model, nm, scenarios[0]);

    TextTable t("Fig 2: " + model.name +
                " (EDP normalized to TC; accuracy loss in points)");
    t.setHeader({"design", "weight sparsity", "accuracy loss",
                 "norm. latency", "norm. energy", "norm. EDP"});
    for (const auto &sc : scenarios) {
        const auto r = ev.runDnn(model, nm, sc);
        all_results.push_back(r);
        if (!r.supported) {
            t.addRow({sc.design, TextTable::fmt(sc.weight_sparsity, 2),
                      "-", "unsupported", "-", "-"});
            continue;
        }
        t.addRow({sc.design, TextTable::fmt(sc.weight_sparsity, 2),
                  TextTable::fmt(r.accuracy_loss, 2),
                  TextTable::fmt(r.total_cycles / tc_result.total_cycles,
                                 3),
                  TextTable::fmt(
                      r.total_energy_pj / tc_result.total_energy_pj, 3),
                  TextTable::fmt(r.edp() / tc_result.edp(), 3)});
    }
    t.print(out);
    out << "\n";
}

} // namespace

ArtifactReport
runFig2()
{
    std::ostringstream out;

    Evaluator ev;
    std::vector<DnnEvalResult> all_results;
    // Transformer-Big: moderate prunability, near-dense activations.
    // HSS's degree flexibility lets HighLight prune to 62.5% within
    // the same 0.5-point accuracy budget that pins STC at 2:4.
    runModel(out, ev, transformerBigModel(), DnnName::TransformerBig,
             0.625, 0.6, all_results);
    // ResNet50: deep prunability, ~60% sparse ReLU activations.
    runModel(out, ev, resnet50Model(), DnnName::ResNet50, 0.75, 0.8,
             all_results);

    out << "Expected shape (paper Fig 2): STC < DSTC on "
           "Transformer-Big; DSTC < STC on ResNet50;\nHighLight "
           "lowest EDP on both.\n";
    return {out.str(), dnnResultsJson(all_results)};
}

} // namespace highlight
