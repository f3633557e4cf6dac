/**
 * @file
 * Accuracy-loss models for pruned DNNs (substitution for the paper's
 * Condensa [24] pruning + fine-tuning pipeline; see FIDELITY.md,
 * Substitutions).
 *
 * The paper's Fig 15 plots EDP against accuracy loss after pruning
 * each DNN to various degrees under each co-design approach. Training
 * ImageNet/WMT16 models is out of scope here, so this module provides
 * deterministic, literature-anchored loss curves:
 *
 *  - unstructured magnitude pruning degrades slowest (most freedom in
 *    choosing survivors),
 *  - one-rank G:H structured pruning (STC/S2TA-style) degrades faster
 *    at high sparsity (rigid per-block quotas),
 *  - HSS sits between the two: the hierarchical quota is more flexible
 *    than a single fine-grained G:H at equal overall sparsity,
 *  - channel pruning degrades fastest.
 *
 * Anchor points follow the published numbers in [32] (2:4 recovers
 * within ~0.1-0.2%), the S2TA and DSTC papers, and the shape of the
 * paper's own Fig 15. Losses are in accuracy points (top-1 % for the
 * vision models, BLEU for Transformer-Big).
 */

#ifndef HIGHLIGHT_ACCURACY_ACCURACY_MODEL_HH
#define HIGHLIGHT_ACCURACY_ACCURACY_MODEL_HH

#include <string>
#include <vector>

namespace highlight
{

/** The evaluated DNNs (paper Sec 7.3). */
enum class DnnName
{
    ResNet50,
    TransformerBig,
    DeitSmall,
};

/** Pruning / co-design approaches compared in Fig 15. */
enum class PruningApproach
{
    Dense,        ///< No pruning (TC).
    Unstructured, ///< Magnitude pruning (DSTC).
    OneRankGh,    ///< Single-rank G:H (STC, S2TA).
    Hss,          ///< Hierarchical structured sparsity (HighLight).
    Channel,      ///< Whole-channel pruning.
};

std::string dnnNameStr(DnnName model);
std::string approachStr(PruningApproach approach);

/**
 * Deterministic accuracy-loss lookup.
 */
class AccuracyModel
{
  public:
    /**
     * Accuracy loss (points) for pruning the given model's prunable
     * weights to `weight_sparsity` under the given approach.
     * Monotone piecewise-linear in sparsity; 0 at sparsity 0.
     */
    static double loss(DnnName model, PruningApproach approach,
                       double weight_sparsity);
};

} // namespace highlight

#endif // HIGHLIGHT_ACCURACY_ACCURACY_MODEL_HH
