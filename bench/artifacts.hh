/**
 * @file
 * The paper's figures, tables and ablations as plain functions.
 *
 * Each artifact computes its tables and returns a report: the text
 * `paper` prints and the payload it writes for `--json PATH`.
 * artifacts() lists all of them by name, and `paper`
 * (bench/driver_main.cc) runs any of them, in one process, in the
 * order named. Only fig17's microsim cross-checks reach the global
 * thread pool; their A has two rows, one row group and one
 * compression block, which run inline, so no artifact starts a pool
 * thread.
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
    std::string text; ///< The printed tables: paper's stdout.
    std::string json; ///< The `--json` dump.
};

/** One paper artifact, under the name `paper` takes. */
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
