/**
 * @file
 * Hierarchical coordinate-payload (CP) compression for HSS operands
 * (paper Sec 6.2, Fig 9).
 *
 * Each rank of an N-rank HSS operand carries offset-based coordinate
 * metadata: every stored value has a CP giving its position within its
 * rank-0 block of H0 values, every non-empty rank-n block has a CP
 * giving its position within its group of Hn blocks.
 *
 * Storage is padded to the structure's worst case — each rank-0 block
 * slot holds exactly G0 (value, offset) pairs and each rank-n group
 * holds exactly Gn block entries — mirroring the hardware, which sizes
 * its datapath for G lanes and fills unused slots with zero-valued
 * dummies that the gating SAF silences. Data words stored are therefore
 * exactly cols * density.
 */

#ifndef HIGHLIGHT_FORMAT_HIERARCHICAL_CP_HH
#define HIGHLIGHT_FORMAT_HIERARCHICAL_CP_HH

#include <cstdint>
#include <vector>

#include "sparsity/hss.hh"
#include "tensor/dense_tensor.hh"

namespace highlight
{

/**
 * Reusable per-worker scratch for row compression: one present-
 * coordinate list per rank (the recursion holds at most one live list
 * per rank). Sized lazily by the compressing row — after the first row
 * warms a worker's scratch up, compressing further rows of the same
 * spec never allocates scratch again.
 */
struct CpRowScratch
{
    std::vector<std::vector<int>> present;
};

/**
 * One compressed row (flattened fiber) of an HSS operand.
 */
class HierarchicalCpRow
{
  public:
    /**
     * An empty placeholder row (no spec, no payload), only useful as
     * the target of an assignment — it exists so parallel matrix
     * compression can resize the row table up front and fill the
     * disjoint slots from worker threads.
     */
    HierarchicalCpRow() = default;

    /**
     * Compress a conforming row. `row` must have `cols` entries with
     * cols divisible by spec.totalSpan(); occupancy above G at any rank
     * is fatal (run the conformance checker first for diagnostics), and
     * so is H above kMaxOffsetSpan at any rank.
     */
    HierarchicalCpRow(const float *row, std::int64_t cols,
                      const HssSpec &spec);

    /**
     * As above, with caller-owned scratch: reusing one CpRowScratch
     * across many rows keeps per-row compression allocation bounded by
     * the row's own exactly-reserved payload storage.
     */
    HierarchicalCpRow(const float *row, std::int64_t cols,
                      const HssSpec &spec, CpRowScratch &scratch);

    /** Reconstruct the dense row. */
    std::vector<float> decompress() const;

    /** Stored payload values (cols * density of them, dummies = 0). */
    const std::vector<float> &values() const { return values_; }

    /**
     * Offsets at the given rank: rank 0 offsets are per stored value
     * (position within the H0 block); rank n >= 1 offsets are per block
     * entry (position of the block within its Hn group).
     */
    const std::vector<std::uint8_t> &offsets(std::size_t rank) const;

    /** Number of data words stored. */
    std::int64_t dataWords() const
    {
        return static_cast<std::int64_t>(values_.size());
    }

    /**
     * Total metadata bits: sum over ranks of (#entries * ceil(log2 Hn)).
     */
    std::int64_t metadataBits() const;

    const HssSpec &spec() const { return spec_; }
    std::int64_t cols() const { return cols_; }

  private:
    /** The whole compression, shared by both compressing ctors. */
    void compress(const float *row, CpRowScratch &scratch);
    /** Emit the fiber at rank n starting at value index `base`. */
    void emitFiber(const float *row, std::int64_t base, std::size_t n,
                   CpRowScratch &scratch);
    /** Emit an all-dummy fiber subtree at rank n (group padding). */
    void emitDummy(std::size_t n);

    HssSpec spec_;
    std::int64_t cols_ = 0;
    std::vector<float> values_;
    /** offsets_[n] = CP metadata at rank n. */
    std::vector<std::vector<std::uint8_t>> offsets_;
};

/**
 * A whole HSS-compressed matrix: one HierarchicalCpRow per row, plus
 * aggregate size accounting used by the analytical model.
 */
class HierarchicalCpMatrix
{
  public:
    HierarchicalCpMatrix(const DenseTensor &matrix, const HssSpec &spec);

    const HierarchicalCpRow &row(std::int64_t r) const;
    std::int64_t numRows() const
    {
        return static_cast<std::int64_t>(rows_.size());
    }
    std::int64_t cols() const { return shape_.dim(1).extent; }
    const HssSpec &spec() const { return spec_; }

    /** Reconstruct the dense matrix. */
    DenseTensor decompress() const;

    /** Total stored data words across rows. */
    std::int64_t dataWords() const;

    /** Total metadata bits across rows. */
    std::int64_t metadataBits() const;

    /**
     * Compression ratio vs. uncompressed 16-bit words:
     * (dense bits) / (data bits + metadata bits).
     */
    double compressionRatio(int word_bits = 16) const;

  private:
    TensorShape shape_;
    HssSpec spec_;
    std::vector<HierarchicalCpRow> rows_;
};

/** ceil(log2(n)) with log2(1) = 1 bit minimum for a stored field. */
int bitsFor(std::int64_t n);

/**
 * The largest block size H whose intra-block offsets (0 .. H-1) fit
 * the 8-bit offset fields of the compressed formats. Every
 * constructor that packs offsets into std::uint8_t rejects a larger H,
 * which would otherwise wrap silently.
 */
constexpr int kMaxOffsetSpan = 256;

} // namespace highlight

#endif // HIGHLIGHT_FORMAT_HIERARCHICAL_CP_HH
