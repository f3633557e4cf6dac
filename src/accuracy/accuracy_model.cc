#include "accuracy/accuracy_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace highlight
{

std::string
approachStr(PruningApproach approach)
{
    switch (approach) {
      case PruningApproach::Dense:
        return "dense";
      case PruningApproach::Unstructured:
        return "unstructured";
      case PruningApproach::OneRankGh:
        return "one-rank G:H";
      case PruningApproach::Hss:
        return "HSS";
      case PruningApproach::Channel:
        return "channel";
    }
    return "?";
}

namespace
{

struct Anchor
{
    double sparsity;
    double loss;
};

/** Monotone piecewise-linear interpolation through (0,0) + anchors. */
double
interpolate(const std::vector<Anchor> &anchors, double sparsity)
{
    if (sparsity <= 0.0)
        return 0.0;
    double prev_s = 0.0, prev_l = 0.0;
    for (const auto &a : anchors) {
        if (sparsity <= a.sparsity) {
            const double t = (sparsity - prev_s) / (a.sparsity - prev_s);
            return prev_l + t * (a.loss - prev_l);
        }
        prev_s = a.sparsity;
        prev_l = a.loss;
    }
    // Beyond the last anchor: extrapolate with the final slope.
    const auto &last = anchors.back();
    const auto &prev = anchors.size() > 1 ? anchors[anchors.size() - 2]
                                          : Anchor{0.0, 0.0};
    const double slope =
        (last.loss - prev.loss) / (last.sparsity - prev.sparsity);
    return last.loss + slope * (sparsity - last.sparsity);
}

std::vector<Anchor>
anchorsFor(DnnName model, PruningApproach approach)
{
    switch (model) {
      case DnnName::ResNet50:
        // Large over-parameterized CNN: prunes well (Sec 1: "can
        // sometimes be pruned to 80% sparsity while maintaining
        // accuracy").
        switch (approach) {
          case PruningApproach::Unstructured:
            return {{0.5, 0.05}, {0.6, 0.1}, {0.7, 0.2}, {0.75, 0.3},
                    {0.8, 0.5}, {0.875, 1.3}, {0.9, 2.2}, {0.95, 6.0}};
          case PruningApproach::OneRankGh:
            return {{0.5, 0.15}, {0.625, 0.45}, {0.75, 0.9},
                    {0.875, 2.6}};
          case PruningApproach::Hss:
            return {{0.5, 0.1}, {0.6, 0.2}, {0.667, 0.32},
                    {0.75, 0.55}, {0.8, 0.85}, {0.875, 1.8}};
          case PruningApproach::Channel:
            return {{0.3, 0.8}, {0.5, 2.5}, {0.7, 6.0}};
          case PruningApproach::Dense:
            break;
        }
        break;
      case DnnName::TransformerBig:
        // Losses in BLEU points; attention models prune moderately.
        switch (approach) {
          case PruningApproach::Unstructured:
            return {{0.5, 0.1}, {0.6, 0.25}, {0.7, 0.5}, {0.8, 1.0},
                    {0.9, 2.8}};
          case PruningApproach::OneRankGh:
            return {{0.5, 0.2}, {0.625, 0.6}, {0.75, 1.2},
                    {0.875, 3.2}};
          case PruningApproach::Hss:
            return {{0.5, 0.15}, {0.625, 0.4}, {0.667, 0.55},
                    {0.75, 0.9}, {0.875, 2.5}};
          case PruningApproach::Channel:
            return {{0.3, 1.0}, {0.5, 3.0}, {0.7, 7.0}};
          case PruningApproach::Dense:
            break;
        }
        break;
      case DnnName::DeitSmall:
        // Compact model: "cannot be pruned as aggressively" (Sec 1);
        // only ~2/3 of its weights are even prunable (Sec 7.3).
        switch (approach) {
          case PruningApproach::Unstructured:
            return {{0.5, 0.3}, {0.6, 0.55}, {0.7, 1.0}, {0.8, 1.9},
                    {0.9, 4.5}};
          case PruningApproach::OneRankGh:
            return {{0.5, 0.5}, {0.625, 1.2}, {0.75, 2.2},
                    {0.875, 5.0}};
          case PruningApproach::Hss:
            return {{0.5, 0.4}, {0.625, 0.9}, {0.667, 1.2},
                    {0.75, 1.7}, {0.875, 4.0}};
          case PruningApproach::Channel:
            return {{0.3, 1.5}, {0.5, 4.0}, {0.7, 9.0}};
          case PruningApproach::Dense:
            break;
        }
        break;
    }
    return {};
}

} // namespace

double
AccuracyModel::loss(DnnName model, PruningApproach approach,
                    double weight_sparsity)
{
    if (!(0.0 <= weight_sparsity && weight_sparsity < 1.0))
        fatal(msgOf("AccuracyModel::loss: sparsity ", weight_sparsity,
                    " outside [0, 1)"));
    if (approach == PruningApproach::Dense || weight_sparsity == 0.0)
        return 0.0;
    const auto anchors = anchorsFor(model, approach);
    if (anchors.empty())
        fatal("AccuracyModel::loss: no anchors for this combination");
    return std::max(0.0, interpolate(anchors, weight_sparsity));
}

} // namespace highlight
