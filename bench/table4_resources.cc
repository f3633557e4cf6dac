/**
 * @file
 * Reproduces Table 4: hardware resource allocation per design, plus
 * the derived area totals from the component library.
 */

#include <sstream>

#include "artifact_util.hh"
#include "artifacts.hh"

namespace highlight
{

ArtifactReport
runTable4()
{
    std::ostringstream out;

    Evaluator ev;

    TextTable t("Table 4: hardware resource allocation");
    t.setHeader({"design", "GLB", "RF", "compute (MACs)",
                 "total area (mm^2)"});
    for (const Accelerator *d : ev.standardLineup()) {
        t.addRow({d->name(), d->arch().glbString(), d->arch().rfString(),
                  d->arch().computeString(),
                  TextTable::fmt(d->totalAreaUm2() / 1e6, 2)});
    }
    t.print(out);

    out << "\nNote: GLB cells with \"a + bKB\" split data and "
           "metadata partitions,\nmirroring the paper's Table 4 "
           "exactly.\n";
    return {out.str(), tableJson(t)};
}

} // namespace highlight
