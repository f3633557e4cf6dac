/**
 * @file
 * Reproduces Table 2: conventional (informal) classifications vs. the
 * precise fibertree-based specifications for the example sparsity
 * patterns, including the two-rank HSS of Fig 5.
 */

#include <sstream>

#include "artifact_util.hh"
#include "artifacts.hh"
#include "sparsity/spec.hh"

namespace highlight
{

ArtifactReport
runTable2()
{
    std::ostringstream out;

    TextTable t("Table 2: fibertree-based sparsity specifications");
    t.setHeader({"citation", "conventional classification",
                 "fibertree-based specification"});
    for (const auto &row : table2Specs())
        t.addRow({row.citation, row.conventional, row.spec.str()});
    t.print(out);

    out << "\nFig 5 example overall sparsity: 1 - 3/4 * 2/4 = "
        << TextTable::fmt(
               1.0 - exampleTwoRankHssSpec().structuredDensity(), 3)
        << "\n";
    return {out.str(), tableJson(t)};
}

} // namespace highlight
