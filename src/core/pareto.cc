#include "core/pareto.hh"

namespace highlight
{

namespace
{

/** a dominates b: a is <= in both coords and < in at least one. */
bool
dominates(const ParetoPoint &a, const ParetoPoint &b)
{
    return a.x <= b.x && a.y <= b.y && (a.x < b.x || a.y < b.y);
}

bool
isDominated(const std::vector<ParetoPoint> &points, std::size_t i)
{
    for (std::size_t j = 0; j < points.size(); ++j) {
        if (j != i && dominates(points[j], points[i]))
            return true;
    }
    return false;
}

} // namespace

std::vector<bool>
frontierMask(const std::vector<ParetoPoint> &points)
{
    std::vector<bool> mask(points.size(), false);
    for (std::size_t i = 0; i < points.size(); ++i)
        mask[i] = !isDominated(points, i);
    return mask;
}

} // namespace highlight
