#include "accel/workload.hh"

#include <sstream>

#include "common/logging.hh"

namespace highlight
{

OperandSparsity
OperandSparsity::dense()
{
    OperandSparsity s;
    s.kind = PatternKind::Dense;
    s.density = 1.0;
    return s;
}

OperandSparsity
OperandSparsity::unstructured(double density)
{
    if (!(density > 0.0 && density <= 1.0))
        fatal(msgOf("OperandSparsity::unstructured: density ", density));
    OperandSparsity s;
    s.kind = PatternKind::Unstructured;
    s.density = density;
    return s;
}

OperandSparsity
OperandSparsity::structured(const HssSpec &spec)
{
    OperandSparsity s;
    s.kind = PatternKind::Hss;
    s.density = spec.density();
    s.hss = spec;
    return s;
}

std::string
OperandSparsity::str() const
{
    std::ostringstream oss;
    switch (kind) {
      case PatternKind::Dense:
        oss << "dense";
        break;
      case PatternKind::Unstructured:
        oss << "unstructured(d=" << density << ")";
        break;
      case PatternKind::Hss:
        oss << hss.str();
        break;
    }
    return oss.str();
}

GemmWorkload
GemmWorkload::swapped() const
{
    GemmWorkload w = *this;
    std::swap(w.a, w.b);
    std::swap(w.m, w.n);
    w.name = name + " (swapped)";
    return w;
}

std::string
GemmWorkload::str() const
{
    std::ostringstream oss;
    oss << name << ": " << m << "x" << k << "x" << n << " A=" << a.str()
        << " B=" << b.str();
    return oss.str();
}

std::vector<GemmWorkload>
syntheticSuite()
{
    const auto supports = highlightWeightSupport();
    std::vector<GemmWorkload> suite;
    const std::int64_t dim = 1024;
    const double a_sparsities[] = {0.0, 0.5, 0.75};
    const double b_sparsities[] = {0.0, 0.25, 0.5, 0.75};
    for (double sa : a_sparsities) {
        for (double sb : b_sparsities) {
            GemmWorkload w;
            w.m = w.k = w.n = dim;
            std::ostringstream name;
            name << "A" << static_cast<int>(sa * 100) << "%-B"
                 << static_cast<int>(sb * 100) << "%";
            w.name = name.str();
            if (sa == 0.0) {
                w.a = OperandSparsity::dense();
            } else {
                w.a = OperandSparsity::structured(
                    chooseSpecForDensity(supports, 1.0 - sa));
            }
            w.b = sb == 0.0 ? OperandSparsity::dense()
                            : OperandSparsity::unstructured(1.0 - sb);
            suite.push_back(w);
        }
    }
    return suite;
}

} // namespace highlight
