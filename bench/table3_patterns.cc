/**
 * @file
 * Reproduces Table 3: supported sparsity patterns for each design,
 * plus a live verification matrix showing which canonical operand
 * combinations each model accepts.
 */

#include <iostream>

#include "accel/harness.hh"
#include "common/table.hh"
#include "core/evaluator.hh"
#include "runtime_flags.hh"

int
main(int argc, char **argv)
{
    using namespace highlight;

    rejectUnknownArgs(argc, argv);
    configureRuntimeThreads(argc, argv);
    const std::string json_path = parseOptionValue(argc, argv, "--json");

    Evaluator ev;

    TextTable t("Table 3: supported sparsity patterns per design");
    t.setHeader({"design", "operand A", "operand B"});
    for (const Accelerator *d : ev.designs())
        t.addRow({d->name(), d->supportedPatternsA(),
                  d->supportedPatternsB()});
    t.print(std::cout);

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
    std::cout << "\n";
    v.print(std::cout);

    if (!json_path.empty() && !writeTablesJson(json_path, {&t, &v})) {
        std::cerr << "table3: cannot write " << json_path << "\n";
        return 1;
    }
    return 0;
}
