/**
 * @file
 * Reproduces Fig 16: (a) the per-component energy breakdown of every
 * design on a workload with 75% sparse operand A and dense operand B,
 * and (b) HighLight's area breakdown, with the SAFs a small
 * single-digit share of the design.
 */

#include <sstream>

#include "artifact_util.hh"
#include "artifacts.hh"

namespace highlight
{

ArtifactReport
runFig16()
{
    std::ostringstream out;

    Evaluator ev;

    // --- Fig 16(a): energy breakdown at A = 75% sparse, B dense ---
    GemmWorkload w;
    w.name = "A75%-Bdense";
    w.m = w.k = w.n = 1024;
    w.a = OperandSparsity::structured(
        chooseSpecForDensity(highlightWeightSupport(), 0.25));
    w.b = OperandSparsity::dense();

    const char *components[] = {"dram", "glb",  "metadata", "rf",
                                "mac",  "reg",  "saf"};

    TextTable e("Fig 16(a): energy breakdown, 75% sparse A + dense B "
                "(mJ)");
    std::vector<std::string> header{"design"};
    for (const char *c : components)
        header.push_back(c);
    header.push_back("total");
    e.setHeader(header);
    // One batch evaluates the lineup on the workload.
    const auto lineup = ev.standardLineup();
    std::vector<EvalJob> jobs;
    for (const Accelerator *d : lineup)
        jobs.push_back({d, w});
    const auto results = ev.runBatch(jobs);
    for (std::size_t di = 0; di < lineup.size(); ++di) {
        const Accelerator *d = lineup[di];
        const auto &r = results[di];
        std::vector<std::string> row{d->name()};
        if (!r.supported) {
            for (std::size_t i = 1; i < header.size(); ++i)
                row.push_back("unsup");
            e.addRow(row);
            continue;
        }
        for (const char *c : components) {
            const double pj =
                breakdownShare(r.energy_pj, c) * r.totalEnergyPj();
            row.push_back(TextTable::fmt(pj / 1e9, 3));
        }
        row.push_back(TextTable::fmt(r.totalEnergyPj() / 1e9, 3));
        e.addRow(row);
    }
    e.print(out);
    out << "\nExpected shape: DSTC's rf (accumulation) column "
           "dominates its breakdown;\nSTC leaves energy on the "
           "table (2x cap); HighLight's saf column is small.\n\n";

    // --- Fig 16(b): HighLight area breakdown ---
    const Accelerator &hl = ev.design("HighLight");
    const auto area = hl.areaBreakdown();
    TextTable a("Fig 16(b): HighLight area breakdown");
    a.setHeader({"component", "area (mm^2)", "share %"});
    for (const auto &entry : area) {
        a.addRow({entry.name, TextTable::fmt(entry.value / 1e6, 3),
                  TextTable::fmt(
                      100.0 * entry.value / breakdownTotal(area), 1)});
    }
    a.print(out);

    // The paper reports the SAF share over the accelerator datapath
    // (compute + registers + SAFs); SRAM macros are shared with the
    // dense baseline.
    double datapath = 0.0, saf = 0.0;
    for (const auto &entry : area) {
        if (entry.name == "mac" || entry.name == "rf" ||
            entry.name == "reg" || entry.name == "saf")
            datapath += entry.value;
        if (entry.name == "saf")
            saf = entry.value;
    }
    out << "\nSAF share of full design: "
        << TextTable::fmt(100.0 * breakdownShare(area, "saf"), 1)
        << "%   of datapath (excl. SRAM macros): "
        << TextTable::fmt(100.0 * saf / datapath, 1)
        << "%   (paper: 5.7%)\n";
    return {out.str(), resultsJson(results)};
}

} // namespace highlight
