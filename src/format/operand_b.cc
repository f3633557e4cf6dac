#include "format/operand_b.hh"

#include <algorithm>

#include "common/logging.hh"
#include "format/hierarchical_cp.hh"

namespace highlight
{

OperandBStream::OperandBStream(const float *data, std::int64_t len,
                               int h0, int h1)
    : len_(len), h0_(h0), h1_(h1)
{
    if (h0 < 1 || h1 < 1)
        fatal(msgOf("OperandBStream: bad geometry h0=", h0, " h1=", h1));
    if (h0 > kMaxOffsetSpan)
        fatal(msgOf("OperandBStream: h0=", h0, " exceeds ",
                    kMaxOffsetSpan,
                    ", the most its 8-bit level-3 offsets can address"));
    const std::int64_t set_span =
        static_cast<std::int64_t>(h0) * h1;
    if (len % set_span != 0)
        fatal(msgOf("OperandBStream: length ", len,
                    " not divisible by h0*h1=", set_span));

    // Pass 1 counts the nonzeros (level 2: the running count at each
    // block end), so every vector is sized exactly once.
    const std::int64_t nblocks = len / h0;
    block_ends_.resize(static_cast<std::size_t>(nblocks));
    std::int64_t total = 0;
    for (std::int64_t b = 0; b < nblocks; ++b) {
        for (int i = 0; i < h0; ++i)
            total += data[b * h0 + i] != 0.0f;
        block_ends_[static_cast<std::size_t>(b)] = total;
    }
    values_.resize(static_cast<std::size_t>(total));
    offsets_.resize(static_cast<std::size_t>(total));

    // Pass 2 compacts without branching on the data: every value up
    // to the last nonzero is written at the cursor, which only a
    // nonzero advances, so a zero is overwritten by the next value.
    // Before the last nonzero the cursor is below `total`, so no write
    // lands past the end.
    std::int64_t stop = len; // One past the last nonzero.
    while (stop > 0 && data[stop - 1] == 0.0f)
        --stop;
    std::int64_t cursor = 0;
    for (std::int64_t b = 0; b * h0 < stop; ++b) {
        const std::int64_t lanes =
            std::min<std::int64_t>(h0, stop - b * h0);
        for (std::int64_t i = 0; i < lanes; ++i) {
            const float v = data[b * h0 + i];
            values_[static_cast<std::size_t>(cursor)] = v;
            offsets_[static_cast<std::size_t>(cursor)] =
                static_cast<std::uint8_t>(i);
            cursor += v != 0.0f;
        }
    }

    // Level 1: nonzeros per set of h1 blocks.
    set_counts_.resize(static_cast<std::size_t>(nblocks / h1));
    for (std::int64_t s = 0; s < nblocks / h1; ++s) {
        const std::int64_t start =
            s == 0 ? 0 : block_ends_[static_cast<std::size_t>(
                             s * h1 - 1)];
        const std::int64_t end =
            block_ends_[static_cast<std::size_t>((s + 1) * h1 - 1)];
        set_counts_[static_cast<std::size_t>(s)] = end - start;
    }
}

std::vector<float>
OperandBStream::decompress() const
{
    std::vector<float> out(static_cast<std::size_t>(len_), 0.0f);
    const std::int64_t nblocks = len_ / h0_;
    std::int64_t cursor = 0;
    for (std::int64_t b = 0; b < nblocks; ++b) {
        const std::int64_t end =
            block_ends_[static_cast<std::size_t>(b)];
        for (; cursor < end; ++cursor) {
            const std::int64_t pos =
                b * h0_ + offsets_[static_cast<std::size_t>(cursor)];
            out[static_cast<std::size_t>(pos)] =
                values_[static_cast<std::size_t>(cursor)];
        }
    }
    return out;
}

std::int64_t
OperandBStream::metadataBits() const
{
    // Level 1: one count per set; a set holds at most h0*h1 nonzeros.
    const std::int64_t l1 =
        static_cast<std::int64_t>(set_counts_.size()) *
        bitsFor(static_cast<std::int64_t>(h0_) * h1_ + 1);
    // Level 2: end addresses are cumulative over the stream.
    const std::int64_t l2 =
        static_cast<std::int64_t>(block_ends_.size()) * bitsFor(len_ + 1);
    // Level 3: intra-block offsets need ceil(log2 h0) bits.
    const std::int64_t l3 =
        static_cast<std::int64_t>(offsets_.size()) * bitsFor(h0_);
    return l1 + l2 + l3;
}

} // namespace highlight
