/**
 * @file
 * Reproduces Fig 13: latency, energy and EDP of all five designs on
 * the synthetic 1024x1024x1024 suite with A sparsity in {0, 50, 75}%
 * and B sparsity in {0, 25, 50, 75}%, normalized to TC.
 *
 * Operand A is HSS-structured for the structured designs (each design
 * reads it through its own supported patterns; DSTC treats it as
 * unstructured); operand B is unstructured.
 */

#include <sstream>

#include "artifact_util.hh"
#include "artifacts.hh"

namespace highlight
{

ArtifactReport
runFig13()
{
    std::ostringstream out;

    Evaluator ev;
    const auto suite = syntheticSuite();
    const auto designs = ev.standardLineup();

    // One batch evaluates the whole design x workload matrix; the
    // metric tables below just index into it.
    const EvalMatrix matrix(ev, designs, suite);
    const auto at = [&](std::size_t d, std::size_t w) -> const EvalResult & {
        return matrix.at(d, w);
    };

    auto print_metric = [&](const std::string &title, auto metric) {
        TextTable t("Fig 13: " + title + " (normalized to TC)");
        std::vector<std::string> header{"workload"};
        for (const Accelerator *d : designs)
            header.push_back(d->name());
        t.setHeader(header);
        for (std::size_t wi = 0; wi < suite.size(); ++wi) {
            const auto &tc = at(0, wi);
            std::vector<std::string> row{suite[wi].name};
            for (std::size_t di = 0; di < designs.size(); ++di) {
                const auto &r = at(di, wi);
                row.push_back(r.supported
                                  ? TextTable::fmt(metric(r) / metric(tc),
                                                   3)
                                  : std::string("unsup"));
            }
            t.addRow(row);
        }
        t.print(out);
        out << "\n";
    };

    print_metric("processing latency",
                 [](const EvalResult &r) { return r.cycles; });
    print_metric("energy",
                 [](const EvalResult &r) { return r.totalEnergyPj(); });
    print_metric("EDP", [](const EvalResult &r) { return r.edp(); });

    out << "Expected shape (paper Fig 13): STC capped at 2x and "
           "blind to B sparsity;\nDSTC pays its accumulation tax "
           "at low sparsity; S2TA unsupported on dense A;\n"
           "HighLight best (or tied-best) EDP in every cell.\n";
    return {out.str(), resultsJson(matrix.flat())};
}

} // namespace highlight
