/**
 * @file
 * Compressed unstructured operand B with three-level metadata
 * (paper Sec 6.4, Fig 12(a)).
 *
 * Operand B (input activations) can be unstructured sparse. HighLight
 * stores only the nonzero values in the GLB, with metadata that
 * hierarchically encodes locations relative to operand A's HSS block
 * structure so the VFMU can compute its shift amounts:
 *
 *   level 1: total number of nonzeros for every set of H1 rank-1 blocks
 *   level 2: end address (cumulative nonzero count) of each rank-1 block
 *   level 3: the intra-rank-0-block offset of each nonzero value
 *
 * A "rank-1 block" here is a span of H0 consecutive B values (the B
 * values paired with one rank-0 block of A); a "set" is H1 such blocks.
 */

#ifndef HIGHLIGHT_FORMAT_OPERAND_B_HH
#define HIGHLIGHT_FORMAT_OPERAND_B_HH

#include <cstdint>
#include <vector>

namespace highlight
{

/**
 * One compressed stream of operand B values (one K-dimension fiber).
 */
class OperandBStream
{
  public:
    /**
     * Compress a stream of `len` values against block geometry
     * (h0, h1). len must be divisible by h0 * h1, and h0 must not
     * exceed kMaxOffsetSpan (the level-3 offsets are 8-bit).
     */
    OperandBStream(const float *data, std::int64_t len, int h0, int h1);

    /** Reconstruct the dense stream. */
    std::vector<float> decompress() const;

    /** Nonzero values in stream order. */
    const std::vector<float> &values() const { return values_; }

    /**
     * Non-owning view accessors for the simulator's steady-state loop:
     * pointer + unchecked per-element reads, so streaming the
     * compressed operand costs no copies and no bounds checks.
     */
    const float *valuesData() const { return values_.data(); }
    std::int64_t setCountAt(std::int64_t set) const
    {
        return set_counts_[static_cast<std::size_t>(set)];
    }
    std::int64_t blockEndAt(std::int64_t block) const
    {
        return block_ends_[static_cast<std::size_t>(block)];
    }
    std::uint8_t offsetAt(std::int64_t nonzero) const
    {
        return offsets_[static_cast<std::size_t>(nonzero)];
    }

    /** Level-1 metadata: nonzeros per set of h1 blocks. */
    const std::vector<std::int64_t> &setCounts() const
    {
        return set_counts_;
    }

    /**
     * Level-2 metadata: end address of each rank-1 block (cumulative
     * nonzero count from the start of the stream).
     */
    const std::vector<std::int64_t> &blockEnds() const
    {
        return block_ends_;
    }

    /** Level-3 metadata: intra-block offset of each nonzero. */
    const std::vector<std::uint8_t> &offsets() const { return offsets_; }

    /** Number of stored data words (== nonzeros). */
    std::int64_t dataWords() const
    {
        return static_cast<std::int64_t>(values_.size());
    }

    /** Total metadata bits across the three levels. */
    std::int64_t metadataBits() const;

    std::int64_t length() const { return len_; }
    int h0() const { return h0_; }
    int h1() const { return h1_; }

  private:
    std::int64_t len_ = 0;
    int h0_ = 1;
    int h1_ = 1;
    std::vector<float> values_;
    std::vector<std::int64_t> set_counts_;
    std::vector<std::int64_t> block_ends_;
    std::vector<std::uint8_t> offsets_;
};

} // namespace highlight

#endif // HIGHLIGHT_FORMAT_OPERAND_B_HH
