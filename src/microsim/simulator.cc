#include "microsim/simulator.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "format/hierarchical_cp.hh"
#include "format/operand_b.hh"
#include "runtime/thread_pool.hh"

namespace highlight
{

void
SimStats::accumulate(const SimStats &other)
{
    cycles += other.cycles;
    a_words_loaded += other.a_words_loaded;
    psum_updates += other.psum_updates;
    dummy_blocks += other.dummy_blocks;
    glb_b.accumulate(other.glb_b);
    vfmu.accumulate(other.vfmu);
    pe.accumulate(other.pe);
}

double
SimResult::speedupVsDense(std::int64_t m, std::int64_t k,
                          std::int64_t n) const
{
    // Nothing executed (empty M/N/groups): the ratio is undefined, so
    // report no speedup instead of dividing by zero.
    if (stats.cycles == 0)
        return 0.0;
    // A dense datapath of the same width (G1 PEs x G0 lanes) would
    // need (K / (G1*G0)) steps per (row, column) pair.
    const double g_lanes =
        static_cast<double>(stats.pe.mux_selects) /
        static_cast<double>(stats.cycles);
    const double dense_steps = static_cast<double>(m) *
                               static_cast<double>(n) *
                               static_cast<double>(k) / g_lanes;
    return dense_steps / static_cast<double>(stats.cycles);
}

std::vector<float>
buildOrderedBStream(const DenseTensor &b, std::int64_t set_span)
{
    if (b.shape().rank() != 2)
        fatal("buildOrderedBStream: operand B must be rank-2");
    const std::int64_t k = b.shape().dim(0).extent;
    const std::int64_t n = b.shape().dim(1).extent;
    if (set_span < 1 || k % set_span != 0)
        fatal(msgOf("buildOrderedBStream: K=", k,
                    " not divisible by set span ", set_span));
    const std::int64_t groups = k / set_span;
    // Exact reserve: one allocation for the whole stream.
    std::vector<float> stream;
    stream.reserve(static_cast<std::size_t>(k * n));
    const float *b_data = b.data().data();
    for (std::int64_t g = 0; g < groups; ++g) {
        for (std::int64_t col = 0; col < n; ++col) {
            for (std::int64_t kk = g * set_span;
                 kk < (g + 1) * set_span; ++kk) {
                stream.push_back(b_data[kk * n + col]);
            }
        }
    }
    return stream;
}

namespace
{

/**
 * Cold path of the short-read check: building the message costs an
 * ostringstream, which must stay out of the steady-state loop body.
 */
[[noreturn]] __attribute__((noinline)) void
truncatedStream(std::int64_t set_idx, std::int64_t need,
                std::int64_t got)
{
    panic(msgOf("RowWorker: truncated operand-B stream — set ",
                set_idx, " needs ", need, " words, got ", got));
}

} // namespace

RowGroupWorker::RowGroupWorker(const SimContext &ctx,
                               int group_capacity)
    : ctx_(ctx), group_capacity_(group_capacity),
      glb_(ctx.stream, ctx.stream_len, ctx.glb_row_words),
      vfmu_(glb_, ctx.vfmu_capacity)
{
    if (group_capacity_ < 1)
        fatal(msgOf("RowGroupWorker: group capacity ", group_capacity_,
                    " < 1"));
    const std::size_t set_span =
        static_cast<std::size_t>(ctx_.h0) * static_cast<std::size_t>(ctx_.h1);
    const std::size_t cap = static_cast<std::size_t>(group_capacity_);
    const std::size_t pe_slots =
        cap * static_cast<std::size_t>(ctx_.g1);
    pes_.reserve(pe_slots);
    for (std::size_t p = 0; p < pe_slots; ++p)
        pes_.emplace_back(ctx_.g0);
    block_offsets_.assign(pe_slots, 0);
    words_.assign(set_span, 0.0f);
    blocks_.assign(set_span, 0.0f);
    selected_blocks_.assign(static_cast<std::size_t>(ctx_.h1), 0);
    block_selected_.assign(static_cast<std::size_t>(ctx_.h1), 0);
    row_vals_.assign(cap, nullptr);
    row_offs0_.assign(cap, nullptr);
    row_offs1_.assign(cap, nullptr);
}

void
RowGroupWorker::runGroup(std::int64_t row0, int nrows, DenseTensor &out)
{
    if (nrows < 1 || nrows > group_capacity_)
        fatal(msgOf("RowGroupWorker: group of ", nrows,
                    " rows exceeds capacity ", group_capacity_));
    const int g0 = ctx_.g0, g1 = ctx_.g1, h0 = ctx_.h0, h1 = ctx_.h1;
    const std::int64_t n = ctx_.n;
    const std::int64_t set_span =
        static_cast<std::int64_t>(h0) * h1;
    const OperandBStream *const bc = ctx_.b_comp;
    const bool compress_b = bc != nullptr;

    // Resolve the group's compressed-A row pointers once.
    for (int r = 0; r < nrows; ++r) {
        const HierarchicalCpRow &cp = ctx_.a_cp->row(row0 + r);
        const std::size_t rr = static_cast<std::size_t>(r);
        row_vals_[rr] = cp.values().data();
        row_offs0_[rr] = cp.offsets(0).data();
        row_offs1_[rr] = ctx_.two_rank ? cp.offsets(1).data() : nullptr;
    }

    // Fresh streaming state per group: the B stream runs through the
    // shared VFMU exactly once, broadcast to every row. Component
    // counters restart at zero so the pass activity can be folded —
    // restream-equivalently, once per row — below.
    glb_.reset();
    vfmu_.reset();
    for (auto &pe : pes_)
        pe.resetStats();

    const std::size_t pe_slots =
        static_cast<std::size_t>(nrows) * static_cast<std::size_t>(g1);
    for (std::int64_t g = 0; g < ctx_.groups; ++g) {
        // Rank-1 skipping SAF: load each row's G1 selected blocks
        // (real or dummy) stationary into that row's PEs for this
        // group.
        for (int r = 0; r < nrows; ++r) {
            const std::size_t rr = static_cast<std::size_t>(r);
            const float *cp_vals = row_vals_[rr];
            const std::uint8_t *cp_offs0 = row_offs0_[rr];
            const std::uint8_t *cp_offs1 = row_offs1_[rr];
            const std::size_t pe_base =
                rr * static_cast<std::size_t>(g1);
            for (int p = 0; p < g1; ++p) {
                const std::int64_t entry = g * g1 + p;
                block_offsets_[pe_base + static_cast<std::size_t>(p)] =
                    ctx_.two_rank ? cp_offs1[entry] : 0;
                const float *lane_vals = cp_vals + entry * g0;
                const std::uint8_t *lane_offs = cp_offs0 + entry * g0;
                bool all_dummy = true;
                for (int l = 0; l < g0; ++l)
                    all_dummy &= lane_vals[l] == 0.0f;
                pes_[pe_base + static_cast<std::size_t>(p)].loadBlock(
                    lane_vals, lane_offs);
                stats_.a_words_loaded += g0;
                stats_.dummy_blocks += all_dummy;
            }
        }

        // The blocks the rows' rank-1 SAFs selected stay fixed for the
        // whole K-group, so the distinct ones are collected once here
        // rather than deduplicated again for every column.
        std::size_t num_selected = 0;
        if (compress_b) {
            std::fill(block_selected_.begin(), block_selected_.end(), 0);
            for (std::size_t s = 0; s < pe_slots; ++s) {
                const std::uint8_t j = block_offsets_[s];
                if (block_selected_[j] == 0) {
                    block_selected_[j] = 1;
                    selected_blocks_[num_selected++] = j;
                }
            }
        }

        for (std::int64_t col = 0; col < n; ++col) {
            // One shared VFMU shift for this (group, column) set,
            // broadcast to all rows of the group.
            const std::int64_t set_idx = g * n + col;
            if (compress_b) {
                const std::int64_t count = bc->setCountAt(set_idx);
                if (count == 0) {
                    // An all-zero set: the VFMU does not shift
                    // (readShift(0) touches no counter), every lane of
                    // every PE selects a zero and gates, and each row's
                    // partial sum is +0.0. Adding +0.0 leaves an output
                    // unchanged (outputs start at +0.0 and never become
                    // -0.0), so the step is charged without being run.
                    for (std::size_t s = 0; s < pe_slots; ++s)
                        pes_[s].gatedStep();
                    stats_.cycles += nrows;
                    stats_.psum_updates += nrows;
                    continue;
                }
                const int got = vfmu_.readShift(
                    static_cast<int>(count), words_.data());
                if (got != count)
                    truncatedStream(set_idx, count, got);
                // Expand each selected block straight from the
                // level-2/3 metadata, once per step no matter how many
                // rows selected it: the block is zeroed (H0 words) and
                // scattered just before the PEs read it, so no
                // all-zero invariant, and no per-step fill over the
                // whole H1*H0 array, is needed. Unselected blocks are
                // never touched: no PE reads them.
                const std::int64_t first_block = set_idx * h1;
                const std::int64_t set_start =
                    first_block == 0 ? 0
                                     : bc->blockEndAt(first_block - 1);
                for (std::size_t i = 0; i < num_selected; ++i) {
                    const int j = selected_blocks_[i];
                    const std::int64_t blk = first_block + j;
                    const std::int64_t begin =
                        blk == 0 ? 0 : bc->blockEndAt(blk - 1);
                    const std::int64_t end = bc->blockEndAt(blk);
                    float *block_j =
                        blocks_.data() +
                        static_cast<std::int64_t>(j) * h0;
                    std::fill(block_j, block_j + h0, 0.0f);
                    for (std::int64_t w = begin; w < end; ++w) {
                        block_j[bc->offsetAt(w)] = words_
                            [static_cast<std::size_t>(w - set_start)];
                    }
                }
            } else {
                // Dense B: fixed shift of H1 blocks (H1*H0 words)
                // read straight into the aligned block array; for
                // H1 < Hmax the tail slots would be dummy padding
                // never selected by the rank-1 SAF.
                const int got = vfmu_.readShift(
                    static_cast<int>(set_span), blocks_.data());
                if (got != set_span)
                    truncatedStream(set_idx, set_span, got);
            }

            // One processing step per row: each row's PEs in
            // parallel, partial sums spatially accumulated, then one
            // RF update per row — the exact serial per-row operation
            // sequence, so outputs are byte-identical to ungrouped
            // execution.
            for (int r = 0; r < nrows; ++r) {
                const std::size_t pe_base =
                    static_cast<std::size_t>(r) *
                    static_cast<std::size_t>(g1);
                double psum = 0.0;
                for (int p = 0; p < g1; ++p) {
                    const std::size_t slot =
                        pe_base + static_cast<std::size_t>(p);
                    const float *blk =
                        blocks_.data() +
                        static_cast<std::int64_t>(
                            block_offsets_[slot]) *
                            h0;
                    psum += pes_[slot].step(blk, h0);
                }
                ++stats_.cycles;
                ++stats_.psum_updates;
                const std::int64_t out_idx = (row0 + r) * n + col;
                out.setFlatUnchecked(out_idx,
                                     out.atFlatUnchecked(out_idx) +
                                         static_cast<float>(psum));
            }
        }
    }

    // Fold the group's component activity into the worker aggregate.
    // The GLB/VFMU pass was shared physically but is accounted
    // restream-equivalently: its counters are a pure function of the
    // stream and shift sequence (row-independent), so each row of the
    // group is charged one full pass — keeping every total
    // byte-identical to ungrouped execution.
    stats_.glb_b.accumulateScaled(glb_.stats(), nrows);
    stats_.vfmu.accumulateScaled(vfmu_.stats(), nrows);
    for (const auto &pe : pes_)
        stats_.pe.accumulate(pe.stats());
}

HighlightSimulator::HighlightSimulator(MicrosimConfig config)
    : config_(config)
{
    if (config_.glb_row_words < 1)
        fatal("HighlightSimulator: glb_row_words < 1");
    if (config_.group_rows < 0)
        fatal(msgOf("HighlightSimulator: group_rows ",
                    config_.group_rows, " < 0 (0 means auto)"));
}

SimResult
HighlightSimulator::run(const DenseTensor &a, const HssSpec &a_spec,
                        const DenseTensor &b) const
{
    if (a.shape().rank() != 2 || b.shape().rank() != 2)
        fatal("HighlightSimulator: operands must be rank-2");
    const std::int64_t m = a.shape().dim(0).extent;
    const std::int64_t k = a.shape().dim(1).extent;
    const std::int64_t n = b.shape().dim(1).extent;
    if (b.shape().dim(0).extent != k)
        fatal(msgOf("HighlightSimulator: A is Mx", k, " but B is ",
                    b.shape().dim(0).extent, "xN"));

    // Geometry from the operand-A spec. The datapath implements the
    // paper's two-level SAF hierarchy (PE-array level + PE level,
    // Fig 6(c)); deeper HSS hierarchies are covered by the analytical
    // explorer only.
    if (a_spec.numRanks() > 2)
        fatal(msgOf("HighlightSimulator: the simulated datapath "
                    "implements at most two HSS ranks; got ",
                    a_spec.numRanks()));
    const int g0 = a_spec.rank(0).g;
    const int h0 = a_spec.rank(0).h;
    const bool two_rank = a_spec.numRanks() > 1;
    const int g1 = two_rank ? a_spec.rank(1).g : 1;
    const int h1 = two_rank ? a_spec.rank(1).h : 1;
    const std::int64_t set_span = static_cast<std::int64_t>(h0) * h1;
    if (k % set_span != 0)
        fatal(msgOf("HighlightSimulator: K=", k,
                    " not divisible by H0*H1=", set_span));
    const std::int64_t groups = k / set_span;

    int vfmu_cap = config_.vfmu_capacity_words;
    if (vfmu_cap == 0) {
        vfmu_cap = std::max(2 * h1 * h0, 2 * config_.glb_row_words);
        vfmu_cap = std::max(
            vfmu_cap, static_cast<int>(set_span) + config_.glb_row_words);
    }

    // Compress operand A (validates conformance as a side effect).
    const HierarchicalCpMatrix a_cp(a, a_spec);

    // Build the operand-B GLB stream once. This vector is the GLB
    // backing store for the dense path; the compressed path hands it
    // to the compressor and streams the packed nonzeros instead.
    std::vector<float> b_stream = buildOrderedBStream(b, set_span);

    // Optional compressed view of the stream (Sec 6.4): per-set shift
    // counts come from the level-1 metadata.
    std::unique_ptr<OperandBStream> b_comp;
    if (config_.compress_b) {
        b_comp = std::make_unique<OperandBStream>(
            b_stream.data(), static_cast<std::int64_t>(b_stream.size()),
            h0, h1);
        // The ordered dense stream was only the compressor's input;
        // the GLB streams the packed nonzeros, so drop it here rather
        // than holding both orderings through the whole run.
        std::vector<float>().swap(b_stream);
    }

    // Everything the row workers share, read-only: compressed A, the
    // once-built stream + metadata, and the resolved geometry.
    SimContext ctx;
    ctx.a_cp = &a_cp;
    ctx.b_comp = b_comp.get();
    ctx.stream = config_.compress_b ? b_comp->valuesData()
                                    : b_stream.data();
    ctx.stream_len = config_.compress_b
                         ? b_comp->dataWords()
                         : static_cast<std::int64_t>(b_stream.size());
    ctx.glb_row_words = config_.glb_row_words;
    ctx.vfmu_capacity = vfmu_cap;
    ctx.g0 = g0;
    ctx.h0 = h0;
    ctx.g1 = g1;
    ctx.h1 = h1;
    ctx.two_rank = two_rank;
    ctx.groups = groups;
    ctx.n = n;

    SimResult result{DenseTensor(TensorShape({{"M", m}, {"N", n}})), {}};

    // Group-parallel steady state: rows are partitioned into fixed
    // contiguous groups of `group` rows; each group performs one
    // shared operand-B pass broadcast to its rows (the hardware's
    // column broadcast), and disjoint groups are shared-nothing, so
    // they fan out across the runtime pool. One RowGroupWorker per
    // pool slot, leased per group; one group per claim because one
    // group is milliseconds of work. Each group writes only its own
    // rows' output slots with the serial code's exact per-row
    // operation sequence, and the partition depends only on (M,
    // group), so results are byte-identical at any thread count and
    // any group size.
    const std::int64_t group = std::max<std::int64_t>(
        1, std::min<std::int64_t>(
               m, config_.group_rows > 0
                      ? config_.group_rows
                      : static_cast<std::int64_t>(
                            MicrosimConfig::kDefaultGroupRows)));
    const std::int64_t num_groups = (m + group - 1) / group;
    ThreadPool &pool = ThreadPool::global();
    const std::size_t num_workers = static_cast<std::size_t>(
        std::min<std::int64_t>(num_groups, pool.numThreads()));
    WorkerSlots<RowGroupWorker> workers(num_workers, [&](std::size_t) {
        return std::make_unique<RowGroupWorker>(
            ctx, static_cast<int>(group));
    });
    pool.parallelForGroups(
        static_cast<std::size_t>(m), static_cast<std::size_t>(group),
        [&](std::size_t begin, std::size_t end) {
            auto worker = workers.acquire();
            worker->runGroup(static_cast<std::int64_t>(begin),
                             static_cast<int>(end - begin),
                             result.output);
        });

    // Deterministic ordered reduction of the per-worker counters on
    // the calling thread (no atomics): every counter is additive, so
    // the totals equal the serial run's regardless of which rows each
    // worker processed.
    for (std::size_t w = 0; w < workers.size(); ++w)
        result.stats.accumulate(workers.slot(w).stats());
    return result;
}

} // namespace highlight
