/**
 * @file
 * Processing element of the micro-simulator (paper Sec 6.3.3, Fig 10).
 *
 * Each PE holds G0 stationary operand-A values (the nonzeros of one
 * rank-0 block) with their CP offsets. Per processing step it receives
 * one dense-expanded operand-B block of H0 values; each MAC lane
 * selects its B value through the rank-0 mux using the A-side offset,
 * gates when the selected B value (or the lane's A dummy) is zero, and
 * contributes to the PE's partial sum.
 *
 * MicroPe models one PE on its own: DssoSimulator's datapath and the
 * unit tests step it directly. HighlightSimulator's row-group worker
 * instead sweeps each live lane across every output column, through
 * the same gatedProduct(), so the two produce the same bits. The pointer-based loadBlock/step
 * overloads never allocate (the G0 lane registers are sized once at
 * construction), and step() gates lanes without a data-dependent
 * branch.
 */

#ifndef HIGHLIGHT_MICROSIM_PE_HH
#define HIGHLIGHT_MICROSIM_PE_HH

#include <cstdint>
#include <cstring>
#include <vector>

namespace highlight
{

/** Per-PE activity counters. */
struct PeStats
{
    std::int64_t mac_ops = 0;     ///< Effectual multiply-accumulates.
    std::int64_t gated_macs = 0;  ///< Lanes gated (zero operand).
    std::int64_t mux_selects = 0; ///< Rank-0 mux selections.

    /** Fold another counter block in (all counters are additive). */
    void
    accumulate(const PeStats &other)
    {
        mac_ops += other.mac_ops;
        gated_macs += other.gated_macs;
        mux_selects += other.mux_selects;
    }
};

/**
 * One MAC lane's contribution to a partial sum: a * b when `live`,
 * else +0.0.
 *
 * A lane whose A or selected B value is zero (of either sign) is gated
 * and adds +0.0 to the partial sum. That is the identity on the sum:
 * it starts at +0.0 and cannot become -0.0 (a product of nonzero
 * floats is a nonzero double, and a rounded sum is -0.0 only when both
 * addends are), so the effectual lanes add up in lane order exactly as
 * if the gated ones were skipped. The gate masks the product's bits
 * instead of branching, because B sparsity makes such a branch
 * unpredictable; a masked inf * 0 or NaN * 0 product still adds +0.0,
 * where scaling the product by a 0/1 factor would add NaN. The mask
 * also keeps the compiler from contracting the caller's multiply-add
 * into an FMA, so every build rounds the same way.
 */
inline double
gatedProduct(double a, double b, bool live)
{
    const double prod = a * b;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &prod, sizeof bits);
    bits &= -static_cast<std::uint64_t>(live);
    double contribution = 0.0;
    std::memcpy(&contribution, &bits, sizeof contribution);
    return contribution;
}

/**
 * One PE with G0 MAC lanes.
 */
class MicroPe
{
  public:
    explicit MicroPe(int g0);

    /**
     * Load a rank-0 block's stationary operands: exactly G0 values
     * with their intra-block offsets (dummy lanes carry value 0).
     * Allocation free.
     */
    void loadBlock(const float *values, const std::uint8_t *offsets);

    /** As above from vectors, with a lane-count check. */
    void loadBlock(const std::vector<float> &values,
                   const std::vector<std::uint8_t> &offsets);

    /**
     * Process one step against a dense-expanded B block of `b_len`
     * values (offsets past `b_len` select the dummy zero). Returns the
     * PE's partial-sum contribution: the lanes' gatedProduct()s added
     * in lane order to +0.0. Allocation free.
     */
    double
    step(const float *b_block, int b_len)
    {
        double psum = 0.0;
        int effectual = 0;
        for (int lane = 0; lane < g0_; ++lane) {
            const float a = a_values_[static_cast<std::size_t>(lane)];
            const int off = a_offsets_[static_cast<std::size_t>(lane)];
            // Rank-0 mux: select the B value at the lane's CP offset.
            const float b =
                off < b_len ? b_block[static_cast<std::size_t>(off)]
                            : 0.0f;
            // Gating SAF: a gated MAC stays idle; the cycle is still
            // spent so PEs remain in sync (Sec 6.4).
            const bool live = (a != 0.0f) & (b != 0.0f);
            psum += gatedProduct(static_cast<double>(a),
                                 static_cast<double>(b), live);
            effectual += live;
        }
        stats_.mux_selects += g0_;
        stats_.mac_ops += effectual;
        stats_.gated_macs += g0_ - effectual;
        return psum;
    }

    /** As above from a vector. */
    double step(const std::vector<float> &b_block);

    const PeStats &stats() const { return stats_; }

    int g0() const { return g0_; }

  private:
    int g0_;
    std::vector<float> a_values_;
    std::vector<std::uint8_t> a_offsets_;
    PeStats stats_;
};

} // namespace highlight

#endif // HIGHLIGHT_MICROSIM_PE_HH
