/**
 * @file
 * Reproduces Table 4: hardware resource allocation per design, plus
 * the derived area totals from the component library.
 */

#include <iostream>

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

    TextTable t("Table 4: hardware resource allocation");
    t.setHeader({"design", "GLB", "RF", "compute (MACs)",
                 "total area (mm^2)"});
    for (const Accelerator *d : ev.standardLineup()) {
        t.addRow({d->name(), d->arch().glbString(), d->arch().rfString(),
                  d->arch().computeString(),
                  TextTable::fmt(d->totalAreaUm2() / 1e6, 2)});
    }
    t.print(std::cout);

    std::cout << "\nNote: GLB cells with \"a + bKB\" split data and "
                 "metadata partitions,\nmirroring the paper's Table 4 "
                 "exactly.\n";

    if (!json_path.empty() && !writeTableJson(json_path, t)) {
        std::cerr << "table4: cannot write " << json_path << "\n";
        return 1;
    }
    return 0;
}
