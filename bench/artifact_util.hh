/**
 * @file
 * Helpers the artifact functions share: the batched design x workload
 * result matrix of the sweep artifacts and the `--json` dumps.
 *
 * The dumps print doubles at max_digits10 and table cells verbatim,
 * so two dumps are byte-identical iff the results are bit-identical,
 * and a change that must not move a result can cmp its dumps with
 * those of its parent commit.
 */

#ifndef HIGHLIGHT_BENCH_ARTIFACT_UTIL_HH
#define HIGHLIGHT_BENCH_ARTIFACT_UTIL_HH

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "core/evaluator.hh"
#include "io/json.hh"

namespace highlight
{

/**
 * A design x workload result matrix evaluated as one runBatch.
 */
class EvalMatrix
{
  public:
    EvalMatrix(const Evaluator &ev,
               const std::vector<const Accelerator *> &designs,
               const std::vector<GemmWorkload> &suite)
        : num_workloads_(suite.size())
    {
        std::vector<EvalJob> jobs;
        jobs.reserve(designs.size() * suite.size());
        for (const Accelerator *d : designs) {
            for (const auto &w : suite)
                jobs.push_back({d, w});
        }
        results_ = ev.runBatch(jobs);
    }

    const EvalResult &
    at(std::size_t design, std::size_t workload) const
    {
        return results_[design * num_workloads_ + workload];
    }

    const std::vector<EvalResult> &flat() const { return results_; }

  private:
    std::size_t num_workloads_;
    std::vector<EvalResult> results_;
};

/** Eval results as a JSON array, one object per result. */
inline std::string
resultsJson(const std::vector<EvalResult> &results)
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const EvalResult &r = results[i];
        out << "  {\"design\": " << jsonQuote(r.design)
            << ", \"workload\": " << jsonQuote(r.workload)
            << ", \"supported\": " << (r.supported ? "true" : "false")
            << ", \"cycles\": " << r.cycles
            << ", \"energy_pj\": " << r.totalEnergyPj()
            << ", \"edp\": " << r.edp() << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return out.str();
}

/** As resultsJson, for whole-DNN results. */
inline std::string
dnnResultsJson(const std::vector<DnnEvalResult> &results)
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const DnnEvalResult &r = results[i];
        out << "  {\"design\": " << jsonQuote(r.design)
            << ", \"supported\": " << (r.supported ? "true" : "false")
            << ", \"accuracy_loss\": " << r.accuracy_loss
            << ", \"total_cycles\": " << r.total_cycles
            << ", \"total_energy_pj\": " << r.total_energy_pj << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return out.str();
}

/**
 * One table as JSON (see TextTable::printJson). The table and
 * ablation artifacts dump what they print: their cells are their
 * whole result set.
 */
inline std::string
tableJson(const TextTable &table)
{
    std::ostringstream out;
    table.printJson(out);
    return out.str();
}

/** As tableJson for artifacts that print several tables: an array. */
inline std::string
tablesJson(const std::vector<const TextTable *> &tables)
{
    std::ostringstream out;
    out << "[\n";
    for (std::size_t i = 0; i < tables.size(); ++i) {
        tables[i]->printJson(out);
        if (i + 1 < tables.size())
            out << ",\n";
    }
    out << "]\n";
    return out.str();
}

} // namespace highlight

#endif // HIGHLIGHT_BENCH_ARTIFACT_UTIL_HH
