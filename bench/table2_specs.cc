/**
 * @file
 * Reproduces Table 2: conventional (informal) classifications vs. the
 * precise fibertree-based specifications for the example sparsity
 * patterns, including the two-rank HSS of Fig 5.
 */

#include <iostream>

#include "common/table.hh"
#include "runtime_flags.hh"
#include "sparsity/spec.hh"

int
main(int argc, char **argv)
{
    using namespace highlight;

    rejectUnknownArgs(argc, argv);
    configureRuntimeThreads(argc, argv);
    const std::string json_path = parseOptionValue(argc, argv, "--json");

    TextTable t("Table 2: fibertree-based sparsity specifications");
    t.setHeader({"citation", "conventional classification",
                 "fibertree-based specification"});
    for (const auto &row : table2Specs())
        t.addRow({row.citation, row.conventional, row.spec.str()});
    t.print(std::cout);

    std::cout << "\nFig 5 example overall sparsity: 1 - 3/4 * 2/4 = "
              << TextTable::fmt(
                     1.0 - exampleTwoRankHssSpec().structuredDensity(),
                     3)
              << "\n";

    if (!json_path.empty() && !writeTableJson(json_path, t)) {
        std::cerr << "table2: cannot write " << json_path << "\n";
        return 1;
    }
    return 0;
}
