/**
 * @file
 * Variable Fetch Management Unit (paper Sec 6.3.2, Figs 11-12).
 *
 * The VFMU sits between the GLB's aligned row fetches and the PEs'
 * variable-length block needs. It holds a small buffer, refills it with
 * aligned GLB rows only when the buffered valid words cannot satisfy
 * the next read ("if there are enough data words stored in VFMU for the
 * next processing step, the GLB fetch is not performed"), and pops a
 * configurable shift amount per processing step:
 *
 *  - dense operand B: shift = H1 * H0 values (e.g. 12 for C1(2:3),
 *    Fig 11), output padded with dummy blocks up to Hmax blocks;
 *  - compressed operand B: shift = the per-set nonzero count encoded
 *    in the level-1 metadata (Fig 12(b)).
 *
 * The buffer is a flat ring of `capacity_words` floats, sized once at
 * construction; refills and shifts never allocate, matching the fixed
 * SRAM the unit models. `reset()` rewinds the stream for the next
 * restreaming pass over the same GLB image.
 */

#ifndef HIGHLIGHT_MICROSIM_VFMU_HH
#define HIGHLIGHT_MICROSIM_VFMU_HH

#include <cstdint>
#include <vector>

#include "microsim/glb.hh"

namespace highlight
{

/** VFMU event counters. */
struct VfmuStats
{
    std::int64_t shifts = 0;          ///< Variable-length reads served.
    std::int64_t skipped_fetches = 0; ///< Steps served from the buffer.
    std::int64_t words_out = 0;       ///< Valid words delivered.

    /** Fold another counter block in (all counters are additive). */
    void
    accumulate(const VfmuStats &other)
    {
        shifts += other.shifts;
        skipped_fetches += other.skipped_fetches;
        words_out += other.words_out;
    }

    /**
     * Fold `other` in `times` times at once. Used by the row-group
     * worker's restream-equivalent accounting: one physically shared
     * operand pass is charged once per row of the group, so totals
     * stay byte-identical to each row restreaming privately.
     */
    void
    accumulateScaled(const VfmuStats &other, std::int64_t times)
    {
        shifts += other.shifts * times;
        skipped_fetches += other.skipped_fetches * times;
        words_out += other.words_out * times;
    }
};

/**
 * The VFMU streaming buffer (a fixed-capacity ring).
 */
class Vfmu
{
  public:
    /**
     * @param glb            The operand-B GLB image to stream from.
     * @param capacity_words Buffer capacity (2 * Hmax1 blocks of Hmax0
     *                       words in the paper; Sec 6.3.2).
     */
    Vfmu(MicroGlb &glb, int capacity_words);

    /**
     * Read `count` words off the stream head (the configured shift for
     * this step) into `out`, refilling from the GLB beforehand only if
     * needed. Returns the number of words written; fewer than `count`
     * only at end-of-stream. A zero count (an all-zero compressed set)
     * is a no-op that touches no counter: no shift happens and there
     * is no fetch to skip. Allocation free.
     */
    int readShift(int count, float *out);

    /** As above, returning a fresh vector (tests only). */
    std::vector<float> readShift(int count);

    /**
     * Rewind to the start of the GLB stream and drop buffered words,
     * for the next restreaming pass. Counters are zeroed so per-pass
     * activity can be folded by the caller.
     */
    void reset();

    /** True when the stream and buffer are exhausted. */
    bool exhausted() const;

    const VfmuStats &stats() const { return stats_; }

  private:
    /** Refill until at least `need` words are valid (or stream ends). */
    void ensure(int need);

    MicroGlb &glb_;
    int capacity_words_;
    std::vector<float> ring_;        ///< Flat ring storage.
    std::vector<float> row_scratch_; ///< One aligned GLB row.
    int head_ = 0;                   ///< Ring index of the oldest word.
    int size_ = 0;                   ///< Valid words buffered.
    std::int64_t next_row_ = 0;
    VfmuStats stats_;
};

} // namespace highlight

#endif // HIGHLIGHT_MICROSIM_VFMU_HH
