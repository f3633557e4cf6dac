#include "microsim/glb.hh"

#include <algorithm>

#include "common/logging.hh"

namespace highlight
{

MicroGlb::MicroGlb(const float *data, std::int64_t len, int row_words)
    : data_(data), len_(len), row_words_(row_words)
{
    if (row_words_ < 1)
        fatal(msgOf("MicroGlb: row_words ", row_words_));
    if (len_ < 0)
        fatal(msgOf("MicroGlb: stream length ", len_));
    if (len_ > 0 && data_ == nullptr)
        fatal("MicroGlb: null stream");
}

std::int64_t
MicroGlb::numRows() const
{
    return (len_ + row_words_ - 1) / row_words_;
}

int
MicroGlb::fetchRowInto(std::int64_t row, float *out)
{
    if (row < 0 || row >= numRows())
        panic(msgOf("MicroGlb::fetchRowInto: row ", row,
                    " out of range ", numRows()));
    // The physical fetch is always a whole row; the counters model
    // that, independent of how much of it is real data.
    ++stats_.row_fetches;
    stats_.words_read += row_words_;
    const std::int64_t begin = row * row_words_;
    const std::int64_t valid =
        std::min<std::int64_t>(row_words_, len_ - begin);
    std::copy(data_ + begin, data_ + begin + valid, out);
    std::fill(out + valid, out + row_words_, 0.0f);
    return static_cast<int>(valid);
}

} // namespace highlight
