/**
 * @file
 * The top-level evaluation API.
 *
 * Owns one instance of every accelerator model and exposes the
 * paper-style experiments: run a workload (with operand swapping),
 * run a suite, build the per-design DNN workloads of Fig 2/15 (each
 * design prunes the DNN to its own supported pattern at a comparable
 * accuracy level), and normalize everything to the dense TC baseline.
 */

#ifndef HIGHLIGHT_CORE_EVALUATOR_HH
#define HIGHLIGHT_CORE_EVALUATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "accel/harness.hh"
#include "accuracy/accuracy_model.hh"
#include "dnn/layer.hh"
#include "runtime/batch_runner.hh"

namespace highlight
{

/** Per-design weight-sparsity choice for a DNN evaluation. */
struct DnnScenario
{
    std::string design;           ///< Accelerator name.
    PruningApproach approach = PruningApproach::Dense;
    double weight_sparsity = 0.0; ///< Applied to prunable layers.
};

/**
 * Fig 15's co-design candidates, one per (design, pruning, sparsity):
 * dense TC first (the baseline every EDP is normalized to), then
 * channel pruning on TC, one-rank G:H on STC and S2TA, unstructured
 * on DSTC and HSS on HighLight at their swept weight sparsities.
 */
std::vector<DnnScenario> fig15Candidates();

/** One design's aggregate over a DNN's layers. */
struct DnnEvalResult
{
    std::string design;
    double accuracy_loss = 0.0;
    double total_energy_pj = 0.0;
    double total_cycles = 0.0;
    bool supported = true;
    std::string note;
    std::vector<EvalResult> per_layer;

    double edp() const; ///< J*s over the whole network.
};

/**
 * Owns the design lineup and runs experiments.
 */
class Evaluator
{
  public:
    /** Builds TC, STC, S2TA, DSTC, HighLight and DSSO. */
    Evaluator();

    /** All designs (stable order: TC, STC, S2TA, DSTC, HighLight, DSSO). */
    std::vector<const Accelerator *> designs() const;

    /** The standard five-design comparison lineup (no DSSO). */
    std::vector<const Accelerator *> standardLineup() const;

    /** Look up a design by name; fatal if absent. */
    const Accelerator &design(const std::string &name) const;

    /**
     * Evaluate one workload on one design with operand swapping (a
     * one-job runBatch).
     */
    EvalResult run(const std::string &design_name,
                   const GemmWorkload &w) const;

    /**
     * Evaluate a batch of heterogeneous (design, workload) jobs with
     * evaluateBatch(), on the calling thread: each distinct key of the
     * batch is evaluated once, and the results come back in input
     * order. Keeps nothing between calls, so concurrent calls on one
     * Evaluator share no state.
     */
    std::vector<EvalResult> runBatch(
        const std::vector<EvalJob> &jobs) const;

    /**
     * Build the per-layer workloads for a DNN under a scenario: the
     * design's pruning approach is applied to prunable layers (choosing
     * the design's nearest supported pattern) and activations carry the
     * model's typical density. Fatal unless 0 <= weight_sparsity < 1.
     */
    std::vector<GemmWorkload> buildDnnWorkloads(
        const DnnModel &model, const DnnScenario &scenario) const;

    /**
     * Evaluate a DNN end to end under a scenario: its layers form one
     * runBatch, so a repeated layer shape is evaluated once, and the
     * totals are accumulated in layer order.
     */
    DnnEvalResult runDnn(const DnnModel &model, DnnName accuracy_model,
                         const DnnScenario &scenario) const;

  private:
    std::vector<std::unique_ptr<Accelerator>> owned_;
};

} // namespace highlight

#endif // HIGHLIGHT_CORE_EVALUATOR_HH
