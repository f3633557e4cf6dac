/**
 * @file
 * The paper's figures, tables and ablations as plain functions.
 *
 * Each artifact computes its tables and returns a report: the text
 * its driver prints and the payload the driver writes for `--json
 * PATH`. Only fig17's microsim runs use the global thread pool.
 * artifacts() lists all of them under their driver names; every
 * driver executable is bench/driver_main.cc compiled for one of those
 * names.
 */

#ifndef HIGHLIGHT_BENCH_ARTIFACTS_HH
#define HIGHLIGHT_BENCH_ARTIFACTS_HH

#include <string>
#include <vector>

namespace highlight
{

/** What one artifact produced. */
struct ArtifactReport
{
    std::string text; ///< The printed tables: the driver's stdout.
    std::string json; ///< The `--json` dump.
};

/** One paper artifact, named after its driver executable. */
struct Artifact
{
    const char *name;
    ArtifactReport (*run)();
};

/** All 14 artifacts, figures first, then ablations and tables. */
const std::vector<Artifact> &artifacts();

ArtifactReport runFig2();
ArtifactReport runFig6();
ArtifactReport runFig13();
ArtifactReport runFig14();
ArtifactReport runFig15();
ArtifactReport runFig16();
ArtifactReport runFig17();
ArtifactReport runAblationBcompress();
ArtifactReport runAblationRanks();
ArtifactReport runAblationSafs();
ArtifactReport runTable1();
ArtifactReport runTable2();
ArtifactReport runTable3();
ArtifactReport runTable4();

} // namespace highlight

#endif // HIGHLIGHT_BENCH_ARTIFACTS_HH
