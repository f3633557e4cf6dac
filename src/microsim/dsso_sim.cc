#include "microsim/dsso_sim.hh"

#include <vector>

#include "common/logging.hh"
#include "format/hierarchical_cp.hh"

namespace highlight
{

DssoSimResult
DssoSimulator::run(const DenseTensor &a, const GhPattern &a_rank0,
                   const DenseTensor &b, const GhPattern &b_rank1) const
{
    if (a.shape().rank() != 2 || b.shape().rank() != 2)
        fatal("DssoSimulator: operands must be rank-2");
    const std::int64_t m = a.shape().dim(0).extent;
    const std::int64_t k = a.shape().dim(1).extent;
    const std::int64_t n = b.shape().dim(1).extent;
    if (b.shape().dim(0).extent != k)
        fatal("DssoSimulator: inner dimensions differ");
    const int h0 = a_rank0.h;
    const int g0 = a_rank0.g;
    if (h0 > kMaxOffsetSpan)
        fatal(msgOf("DssoSimulator: A's H0=", h0, " exceeds ",
                    kMaxOffsetSpan,
                    ", the most its 8-bit rank-0 offsets can address"));
    if (k % (static_cast<std::int64_t>(h0) * b_rank1.h) != 0)
        fatal(msgOf("DssoSimulator: K=", k,
                    " not divisible by H0*Hb=", h0 * b_rank1.h));

    const std::int64_t blocks = k / h0;
    const std::int64_t groups = blocks / b_rank1.h;
    const int num_pes = b_rank1.g;

    DssoSimResult result{DenseTensor(TensorShape({{"M", m}, {"N", n}})),
                         {}};
    DssoSimStats &st = result.stats;

    std::vector<MicroPe> pes;
    for (int p = 0; p < num_pes; ++p)
        pes.emplace_back(g0);

    // Pre-extract per-column non-empty block lists (B's rank-1
    // metadata) and validate B's structure.
    std::vector<std::vector<std::int64_t>> live_blocks(
        static_cast<std::size_t>(n));
    for (std::int64_t col = 0; col < n; ++col) {
        for (std::int64_t blk = 0; blk < blocks; ++blk) {
            bool nonzero = false;
            for (int i = 0; i < h0 && !nonzero; ++i)
                nonzero = b.at2(blk * h0 + i, col) != 0.0f;
            if (nonzero)
                live_blocks[static_cast<std::size_t>(col)].push_back(
                    blk);
        }
        // Per-group occupancy must respect B's rank-1 pattern.
        std::vector<int> occupancy(static_cast<std::size_t>(groups), 0);
        for (std::int64_t blk :
             live_blocks[static_cast<std::size_t>(col)])
            ++occupancy[static_cast<std::size_t>(blk / b_rank1.h)];
        for (std::int64_t g = 0; g < groups; ++g) {
            if (occupancy[static_cast<std::size_t>(g)] > b_rank1.g)
                fatal(msgOf("DssoSimulator: column ", col, " group ", g,
                            " has ", occupancy[static_cast<std::size_t>(g)],
                            " non-empty blocks > Gb=", b_rank1.g,
                            " (B does not conform to C1(",
                            b_rank1.str(), "))"));
        }
    }

    // Extract A's per-block stationary lanes (rank-0 CP metadata).
    // a_lanes[row][block] = (values, offsets) padded to G0.
    struct Lane
    {
        std::vector<float> values;
        std::vector<std::uint8_t> offsets;
    };
    std::vector<std::vector<Lane>> a_lanes(static_cast<std::size_t>(m));
    for (std::int64_t row = 0; row < m; ++row) {
        auto &row_lanes = a_lanes[static_cast<std::size_t>(row)];
        row_lanes.resize(static_cast<std::size_t>(blocks));
        for (std::int64_t blk = 0; blk < blocks; ++blk) {
            Lane &lane = row_lanes[static_cast<std::size_t>(blk)];
            lane.values.assign(static_cast<std::size_t>(g0), 0.0f);
            lane.offsets.assign(static_cast<std::size_t>(g0), 0);
            int slot = 0;
            for (int i = 0; i < h0; ++i) {
                const float v = a.at2(row, blk * h0 + i);
                if (v == 0.0f)
                    continue;
                if (slot >= g0)
                    fatal(msgOf("DssoSimulator: A row ", row, " block ",
                                blk, " exceeds G0=", g0,
                                " nonzeros (does not conform to C0(",
                                a_rank0.str(), "))"));
                lane.values[static_cast<std::size_t>(slot)] = v;
                lane.offsets[static_cast<std::size_t>(slot)] =
                    static_cast<std::uint8_t>(i);
                ++slot;
            }
        }
    }

    // Processing: for each (row, column), the rank-1 SAF walks only
    // B's non-empty blocks, num_pes at a time; the rank-0 SAF inside
    // each PE selects B values by A's offsets. The B-block scratch is
    // hoisted so the steady-state loop never allocates.
    std::vector<float> b_block(static_cast<std::size_t>(h0));
    for (std::int64_t row = 0; row < m; ++row) {
        for (std::int64_t col = 0; col < n; ++col) {
            const auto &live =
                live_blocks[static_cast<std::size_t>(col)];
            st.b_blocks_skipped +=
                blocks - static_cast<std::int64_t>(live.size());
            double acc = 0.0;
            for (std::size_t i = 0; i < live.size();
                 i += static_cast<std::size_t>(num_pes)) {
                double psum = 0.0;
                for (int p = 0; p < num_pes; ++p) {
                    const std::size_t idx =
                        i + static_cast<std::size_t>(p);
                    if (idx >= live.size())
                        break; // trailing PEs idle this step
                    const std::int64_t blk =
                        live[idx];
                    const Lane &lane =
                        a_lanes[static_cast<std::size_t>(row)]
                               [static_cast<std::size_t>(blk)];
                    pes[static_cast<std::size_t>(p)].loadBlock(
                        lane.values.data(), lane.offsets.data());
                    st.a_words_loaded += g0;
                    for (int j = 0; j < h0; ++j)
                        b_block[static_cast<std::size_t>(j)] =
                            b.at2(blk * h0 + j, col);
                    st.glb_b_words += h0;
                    ++st.b_blocks_processed;
                    psum += pes[static_cast<std::size_t>(p)].step(
                        b_block.data(), h0);
                }
                ++st.cycles;
                acc += psum;
            }
            result.output.set2(row, col, static_cast<float>(acc));
        }
    }

    for (const auto &pe : pes) {
        st.pe.mac_ops += pe.stats().mac_ops;
        st.pe.gated_macs += pe.stats().gated_macs;
        st.pe.mux_selects += pe.stats().mux_selects;
    }
    return result;
}

} // namespace highlight
