/**
 * @file
 * Global buffer model for the micro-simulator (paper Fig 11).
 *
 * The GLB stores operand B as fixed-width rows; every fetch returns one
 * aligned row ("due to the fixed physical dimensions of the GLB, each
 * GLB fetch has to be fixed to a certain number of blocks"). The VFMU
 * downstream turns these aligned fetches into variable-length reads.
 *
 * The GLB does not own the stream: it holds a non-owning view of the
 * once-built operand stream, so a pass over it copies nothing, and
 * streaming the same data again costs a `reset()`. Rows past the end
 * of the stream read as zero padding, exactly like the physically
 * padded buffer it models.
 */

#ifndef HIGHLIGHT_MICROSIM_GLB_HH
#define HIGHLIGHT_MICROSIM_GLB_HH

#include <cstdint>

namespace highlight
{

/** Counters every micro-sim component exposes. */
struct GlbStats
{
    std::int64_t row_fetches = 0; ///< Aligned row-fetch events.
    std::int64_t words_read = 0;  ///< Data words delivered.

    /** Fold another counter block in (all counters are additive). */
    void
    accumulate(const GlbStats &other)
    {
        row_fetches += other.row_fetches;
        words_read += other.words_read;
    }

    /**
     * Fold `other` in `times` times at once. Used by the row-group
     * worker's restream-equivalent accounting: one physically shared
     * operand pass is charged once per row of the group, so totals
     * stay byte-identical to each row restreaming privately.
     */
    void
    accumulateScaled(const GlbStats &other, std::int64_t times)
    {
        row_fetches += other.row_fetches * times;
        words_read += other.words_read * times;
    }
};

/**
 * A read-only GLB image of one operand stream with aligned row access.
 */
class MicroGlb
{
  public:
    /**
     * View an externally owned stream (no copy). `data` must outlive
     * the GLB; the tail of the last row reads as zero padding.
     *
     * @param data      First word of the stream.
     * @param len       Stream length in words.
     * @param row_words Fetch granularity in words (Fig 11: 16).
     */
    MicroGlb(const float *data, std::int64_t len, int row_words);

    /** Number of whole rows (the stream is zero-padded to row width). */
    std::int64_t numRows() const;

    /**
     * Fetch aligned row `row` into `out` (exactly rowWords() words,
     * zero-padded past the stream end). Counts the access. Allocation
     * free: this is the hot-loop entry point. Returns the number of
     * real stream words in the row (< rowWords() only for the final
     * partial row), so the consumer can tell data from padding — a
     * truncated stream must surface as a short read downstream, not
     * as phantom zeros.
     */
    int fetchRowInto(std::int64_t row, float *out);

    /** Zero the access counters for the next restreaming pass. */
    void reset() { stats_ = GlbStats{}; }

    int rowWords() const { return row_words_; }
    const GlbStats &stats() const { return stats_; }

  private:
    const float *data_ = nullptr;
    std::int64_t len_ = 0;
    int row_words_;
    GlbStats stats_;
};

} // namespace highlight

#endif // HIGHLIGHT_MICROSIM_GLB_HH
