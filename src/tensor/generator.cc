#include "tensor/generator.hh"

#include <cmath>

#include "common/logging.hh"

namespace highlight
{

namespace
{

/** N(0,1) sample guaranteed nonzero (exact zeros are "absent"). */
float
nonzeroNormal(Rng &rng)
{
    float v = 0.0f;
    do {
        v = static_cast<float>(rng.normal());
    } while (v == 0.0f);
    return v;
}

} // namespace

DenseTensor
randomDense(const TensorShape &shape, Rng &rng)
{
    DenseTensor t(shape);
    for (auto &v : t.data())
        v = nonzeroNormal(rng);
    return t;
}

DenseTensor
randomUnstructured(const TensorShape &shape, double sparsity, Rng &rng)
{
    if (sparsity < 0.0 || sparsity > 1.0)
        fatal(msgOf("randomUnstructured: sparsity ", sparsity,
                    " outside [0, 1]"));
    DenseTensor t = randomDense(shape, rng);
    const auto n = static_cast<std::size_t>(t.numel());
    const auto zeros = static_cast<std::size_t>(
        std::llround(sparsity * static_cast<double>(n)));
    for (std::size_t idx : rng.sampleIndices(n, zeros))
        t.data()[idx] = 0.0f;
    return t;
}

} // namespace highlight
