#include "microsim/pe.hh"

#include <algorithm>

#include "common/logging.hh"

namespace highlight
{

MicroPe::MicroPe(int g0) : g0_(g0)
{
    if (g0_ < 1)
        fatal(msgOf("MicroPe: g0 ", g0_));
    a_values_.assign(static_cast<std::size_t>(g0_), 0.0f);
    a_offsets_.assign(static_cast<std::size_t>(g0_), 0);
}

void
MicroPe::loadBlock(const float *values, const std::uint8_t *offsets)
{
    std::copy(values, values + g0_, a_values_.data());
    std::copy(offsets, offsets + g0_, a_offsets_.data());
}

void
MicroPe::loadBlock(const std::vector<float> &values,
                   const std::vector<std::uint8_t> &offsets)
{
    if (values.size() != static_cast<std::size_t>(g0_) ||
        offsets.size() != static_cast<std::size_t>(g0_))
        panic(msgOf("MicroPe::loadBlock: expected exactly ", g0_,
                    " lanes"));
    loadBlock(values.data(), offsets.data());
}

double
MicroPe::step(const std::vector<float> &b_block)
{
    return step(b_block.data(), static_cast<int>(b_block.size()));
}

} // namespace highlight
