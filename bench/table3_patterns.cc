/**
 * @file
 * Reproduces Table 3: supported sparsity patterns for each design,
 * plus a live verification matrix showing which canonical operand
 * combinations each model accepts.
 */

#include <sstream>

#include "accel/harness.hh"
#include "artifact_util.hh"
#include "artifacts.hh"

namespace highlight
{

ArtifactReport
runTable3()
{
    std::ostringstream out;

    Evaluator ev;

    TextTable t("Table 3: supported sparsity patterns per design");
    t.setHeader({"design", "operand A", "operand B"});
    for (const Accelerator *d : ev.designs())
        t.addRow({d->name(), d->supportedPatternsA(),
                  d->supportedPatternsB()});
    t.print(out);

    // Verification matrix: supports() on canonical operands.
    struct Case
    {
        const char *name;
        OperandSparsity a, b;
    };
    const auto hss75 =
        chooseSpecForDensity(highlightWeightSupport(), 0.25);
    const Case cases[] = {
        {"dense A / dense B", OperandSparsity::dense(),
         OperandSparsity::dense()},
        {"2:4 A / dense B",
         OperandSparsity::structured(HssSpec({GhPattern(2, 4)})),
         OperandSparsity::dense()},
        {"HSS 75% A / unstr 50% B", OperandSparsity::structured(hss75),
         OperandSparsity::unstructured(0.5)},
        {"unstr 50% A / unstr 50% B", OperandSparsity::unstructured(0.5),
         OperandSparsity::unstructured(0.5)},
    };

    TextTable v("Support verification (Y = functionally correct)");
    std::vector<std::string> header{"workload"};
    for (const Accelerator *d : ev.designs())
        header.push_back(d->name());
    v.setHeader(header);
    for (const auto &c : cases) {
        GemmWorkload w;
        w.name = c.name;
        w.m = w.k = w.n = 1024;
        w.a = c.a;
        w.b = c.b;
        std::vector<std::string> row{c.name};
        for (const Accelerator *d : ev.designs())
            row.push_back(d->supports(w) ? "Y" : "-");
        v.addRow(row);
    }
    out << "\n";
    v.print(out);
    return {out.str(), tablesJson({&t, &v})};
}

} // namespace highlight
