/**
 * @file
 * Ablation: SAF choice per rank — skipping vs. gating (paper Sec 5.1).
 *
 * Gating saves energy at a trivial tax but never time; skipping saves
 * both but needs muxing. This bench evaluates HighLight variants that
 * replace the skipping SAF with gating at rank 0, rank 1, or both, on
 * the 75%-sparse-A synthetic workload, showing why HighLight skips at
 * both ranks.
 */

#include <sstream>

#include "arch/arch_spec.hh"
#include "artifact_util.hh"
#include "artifacts.hh"
#include "energy/components.hh"
#include "format/hierarchical_cp.hh"
#include "model/engine.hh"
#include "sparsity/hss.hh"

namespace highlight
{

ArtifactReport
runAblationSafs()
{
    std::ostringstream out;

    const ComponentLibrary lib;
    const ArchSpec arch = highlightArch();
    const HssSpec spec({GhPattern(2, 4), GhPattern(4, 8)}); // 75%
    const double d0 = spec.rank(0).density(); // 0.5
    const double d1 = spec.rank(1).density(); // 0.5
    const double b_density = 1.0;

    struct Variant
    {
        const char *name;
        bool skip0, skip1;
    };
    const Variant variants[] = {
        {"skip rank1 + skip rank0 (HighLight)", true, true},
        {"skip rank1 + gate rank0", false, true},
        {"gate rank1 + skip rank0", true, false},
        {"gate both ranks", false, false},
    };

    TextTable t("SAF ablation: HighLight variants on A=75% HSS, dense "
                "B (normalized to the full-skipping design)");
    t.setHeader({"variant", "norm. latency", "norm. energy",
                 "norm. EDP"});

    EvalResult baseline;
    for (const auto &v : variants) {
        TrafficParams p;
        p.m = p.k = p.n = 1024;
        p.a_stored_density = spec.density();
        p.a_meta_bits_per_word = bitsFor(4) + bitsFor(8) / 2.0;
        // Skipping at a rank removes that rank's ineffectual steps;
        // gating keeps the steps but silences the lanes.
        p.time_fraction = (v.skip0 ? d0 : 1.0) * (v.skip1 ? d1 : 1.0);
        p.effectual_mac_fraction = spec.density() * b_density;
        p.gate_ineffectual = true;
        // Mux tax only where skipping is implemented.
        p.mux_pj_per_step =
            (v.skip0 ? arch.numMacs() * lib.muxSelectPj(4) : 0.0) +
            (v.skip1 ? arch.num_arrays * 4.0 * lib.muxSelectPj(8)
                     : 0.0);
        p.saf_pj_per_b_fetch = 2.0 * lib.regAccessPj();

        EvalResult r = evaluateTraffic(arch, lib, p);
        if (t.rowCount() == 0)
            baseline = r;
        t.addRow({v.name, TextTable::fmt(r.cycles / baseline.cycles, 2),
                  TextTable::fmt(
                      r.totalEnergyPj() / baseline.totalEnergyPj(), 2),
                  TextTable::fmt(r.edp() / baseline.edp(), 2)});
    }
    t.print(out);

    out << "\nTakeaway (Sec 5.1): gating keeps the energy "
           "savings but forfeits the\nspeedup, multiplying EDP; "
           "skipping at every sparse rank is worth its\nmux "
           "tax for latency-sensitive deployments.\n";
    return {out.str(), tableJson(t)};
}

} // namespace highlight
