#include "core/evaluator.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "accel/dsso.hh"
#include "common/logging.hh"

namespace highlight
{

double
DnnEvalResult::edp() const
{
    const double seconds = total_cycles / 1e9; // 1 GHz clock
    return total_energy_pj * 1e-12 * seconds;
}

std::vector<DnnScenario>
fig15Candidates()
{
    std::vector<DnnScenario> candidates;
    candidates.push_back({"TC", PruningApproach::Dense, 0.0});
    // Channel pruning runs on the dense accelerator with shrunken
    // layers — the classic co-design baseline.
    for (double s : {0.3, 0.5})
        candidates.push_back({"TC", PruningApproach::Channel, s});
    candidates.push_back({"STC", PruningApproach::OneRankGh, 0.5});
    for (double s : {0.5, 0.625, 0.75})
        candidates.push_back({"S2TA", PruningApproach::OneRankGh, s});
    for (double s : {0.5, 0.6, 0.7, 0.8, 0.9})
        candidates.push_back({"DSTC", PruningApproach::Unstructured, s});
    for (double s : {0.5, 0.6, 2.0 / 3.0, 0.75})
        candidates.push_back({"HighLight", PruningApproach::Hss, s});
    return candidates;
}

Evaluator::Evaluator()
{
    owned_ = standardDesigns();
    owned_.push_back(std::make_unique<DssoAccel>());
}

std::vector<const Accelerator *>
Evaluator::designs() const
{
    std::vector<const Accelerator *> out;
    for (const auto &d : owned_)
        out.push_back(d.get());
    return out;
}

std::vector<const Accelerator *>
Evaluator::standardLineup() const
{
    std::vector<const Accelerator *> out;
    for (const auto &d : owned_) {
        if (d->name() != "DSSO")
            out.push_back(d.get());
    }
    return out;
}

const Accelerator &
Evaluator::design(const std::string &name) const
{
    for (const auto &d : owned_) {
        if (d->name() == name)
            return *d;
    }
    fatal(msgOf("Evaluator: unknown design ", name));
}

EvalResult
Evaluator::run(const std::string &design_name,
               const GemmWorkload &w) const
{
    return runBatch({{&design(design_name), w}}).front();
}

std::vector<EvalResult>
Evaluator::runBatch(const std::vector<EvalJob> &jobs) const
{
    return evaluateBatch(jobs);
}

namespace
{

/**
 * A one-rank G:H spec matching the target density on the design's
 * native block size (STC: H = 4, S2TA-style: H = 8). G rounds down so
 * the pruned operand is at least as sparse as requested.
 */
HssSpec
oneRankSpecFor(const std::string &design, double target_density)
{
    const int h = design == "STC" ? 4 : 8;
    int g = static_cast<int>(std::floor(target_density * h + 1e-9));
    g = std::clamp(g, 1, h);
    return HssSpec({GhPattern(g, h)});
}

} // namespace

std::vector<GemmWorkload>
Evaluator::buildDnnWorkloads(const DnnModel &model,
                             const DnnScenario &scenario) const
{
    if (!(0.0 <= scenario.weight_sparsity && scenario.weight_sparsity < 1.0))
        fatal(msgOf("buildDnnWorkloads: ", scenario.design,
                    "'s weight sparsity ", scenario.weight_sparsity,
                    " outside [0, 1)"));
    std::vector<GemmWorkload> suite;
    // The HSS weight pattern depends only on the scenario: chosen once,
    // when the first prunable layer needs it.
    std::optional<OperandSparsity> hss_weights;
    for (const auto &layer : model.layers) {
        GemmWorkload w;
        w.name = model.name + "/" + layer.name;
        w.m = layer.m;
        w.k = layer.k;
        w.n = layer.n;
        w.b = OperandSparsity::unstructured(model.activation_density);

        const bool prune = layer.prunable &&
                           scenario.weight_sparsity > 0.0 &&
                           scenario.approach != PruningApproach::Dense;
        if (!prune) {
            w.a = OperandSparsity::dense();
        } else {
            const double density = 1.0 - scenario.weight_sparsity;
            switch (scenario.approach) {
              case PruningApproach::Unstructured:
                w.a = OperandSparsity::unstructured(density);
                break;
              case PruningApproach::OneRankGh:
                w.a = OperandSparsity::structured(
                    oneRankSpecFor(scenario.design, density));
                break;
              case PruningApproach::Hss:
                if (!hss_weights)
                    hss_weights = OperandSparsity::structured(
                        chooseSpecForDensity(highlightWeightSupport(),
                                             density));
                w.a = *hss_weights;
                break;
              case PruningApproach::Channel:
                // Channel pruning removes whole output channels: the
                // GEMM simply shrinks along M and stays dense.
                w.m = std::max<std::int64_t>(
                    1, static_cast<std::int64_t>(
                           std::llround(layer.m * density)));
                w.a = OperandSparsity::dense();
                break;
              case PruningApproach::Dense:
                w.a = OperandSparsity::dense();
                break;
            }
        }
        suite.push_back(std::move(w));
    }
    return suite;
}

DnnEvalResult
Evaluator::runDnn(const DnnModel &model, DnnName accuracy_model,
                  const DnnScenario &scenario) const
{
    DnnEvalResult out;
    out.design = scenario.design;
    out.accuracy_loss = AccuracyModel::loss(
        accuracy_model, scenario.approach, scenario.weight_sparsity);

    auto suite = buildDnnWorkloads(model, scenario);
    const Accelerator &accel = design(scenario.design);

    // Evaluate the layers as one batch (each distinct shape once),
    // then reduce in layer order.
    std::vector<EvalJob> jobs;
    jobs.reserve(suite.size());
    for (auto &w : suite)
        jobs.push_back({&accel, std::move(w)});
    std::vector<EvalResult> results = runBatch(jobs);
    out.per_layer.reserve(results.size());

    for (EvalResult &r : results) {
        if (!r.supported) {
            // A design that cannot run every layer cannot run the
            // network (Fig 15: S2TA fails on attention models' dense
            // layers). The first failing layer in layer order wins.
            out.supported = false;
            out.note = msgOf("layer ", r.workload, ": ", r.note);
            out.per_layer.clear();
            out.total_energy_pj = 0.0;
            out.total_cycles = 0.0;
            return out;
        }
        out.total_energy_pj += r.totalEnergyPj();
        out.total_cycles += r.cycles;
        out.per_layer.push_back(std::move(r));
    }
    return out;
}

} // namespace highlight
