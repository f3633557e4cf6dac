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

SimContext
makeSimContext(const HierarchicalCpMatrix &a_cp,
               const OperandBStream *b_comp,
               const std::vector<float> &stream, std::int64_t n,
               const MicrosimConfig &config)
{
    const HssSpec &spec = a_cp.spec();
    SimContext ctx;
    ctx.a_cp = &a_cp;
    ctx.b_comp = b_comp;
    ctx.stream = b_comp != nullptr ? b_comp->valuesData() : stream.data();
    ctx.stream_len = b_comp != nullptr
                         ? b_comp->dataWords()
                         : static_cast<std::int64_t>(stream.size());
    ctx.glb_row_words = config.glb_row_words;
    ctx.two_rank = spec.numRanks() > 1;
    ctx.g0 = spec.rank(0).g;
    ctx.h0 = spec.rank(0).h;
    ctx.g1 = ctx.two_rank ? spec.rank(1).g : 1;
    ctx.h1 = ctx.two_rank ? spec.rank(1).h : 1;
    const int set_span = ctx.h0 * ctx.h1;
    ctx.vfmu_capacity = std::max({2 * set_span, 2 * config.glb_row_words,
                                  set_span + config.glb_row_words});
    ctx.groups = a_cp.cols() / set_span;
    ctx.n = n;
    return ctx;
}

namespace
{

/**
 * Rows one column step advances side by side: the worker steps a
 * group's rows in tiles of this many, and any leftover rows (fewer
 * than a tile) one at a time. A tile's sums stay in registers, and
 * its rows' independent addition chains overlap in the pipeline.
 */
constexpr int kTileRows = 4;

/**
 * One processing step of a tile of W rows whose lane tables are
 * interleaved, [lane][row]: every lane gates through gatedProduct(),
 * each row's PE partial sums and row sum accumulate in double exactly
 * as G1 MicroPe steps would (lanes in order within a PE, PEs in order
 * within the row, each sum from +0.0), and each row adds its sum to
 * its output, `out[w * out_stride]`. Returns the effectual lanes.
 */
template <int W>
inline std::int64_t
stepTile(const double *a, const std::int32_t *b_idx, const float *set,
         int g1, int g0, float *out, std::int64_t out_stride)
{
    double row_sum[W] = {};
    std::int64_t effectual = 0;
    for (int p = 0; p < g1; ++p) {
        double pe_sum[W] = {};
        for (int l = 0; l < g0; ++l) {
            for (int w = 0; w < W; ++w) {
                const double b = set[b_idx[w]];
                const bool live = b != 0.0;
                pe_sum[w] += gatedProduct(a[w], b, live);
                effectual += live;
            }
            a += W;
            b_idx += W;
        }
        for (int w = 0; w < W; ++w)
            row_sum[w] += pe_sum[w];
    }
    for (int w = 0; w < W; ++w)
        out[w * out_stride] += static_cast<float>(row_sum[w]);
    return effectual;
}

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

/**
 * The operand-B side of a hand-built context, which OperandBPass reads
 * without bounds checks: fatal unless b_comp, if set, was built for
 * (h0, h1) over groups * n sets, and the GLB view is no longer than
 * the words operand B holds.
 */
void
checkOperandB(const SimContext &ctx, const char *who)
{
    if (ctx.h0 < 1 || ctx.h1 < 1 || ctx.groups < 0 || ctx.n < 0)
        fatal(msgOf(who, ": context geometry h0=", ctx.h0, " h1=", ctx.h1,
                    " groups=", ctx.groups, " n=", ctx.n));
    const std::int64_t set_span = static_cast<std::int64_t>(ctx.h0) * ctx.h1;
    const std::int64_t stream_words = ctx.groups * ctx.n * set_span;
    const OperandBStream *const bc = ctx.b_comp;
    if (bc != nullptr &&
        (bc->h0() != ctx.h0 || bc->h1() != ctx.h1 ||
         bc->length() != stream_words))
        fatal(msgOf(who, ": compressed operand B (h0=", bc->h0(), " h1=",
                    bc->h1(), " length=", bc->length(),
                    ") was not built for h0=", ctx.h0, " h1=", ctx.h1,
                    " length=", stream_words));
    const std::int64_t max_len =
        bc != nullptr ? bc->dataWords() : stream_words;
    if (ctx.stream_len > max_len)
        fatal(msgOf(who, ": stream_len ", ctx.stream_len, " exceeds the ",
                    max_len, " words of operand B"));
}

} // namespace

OperandBPass::OperandBPass(const SimContext &ctx)
    : stride_(static_cast<std::int64_t>(ctx.h0) * ctx.h1 + 1),
      num_sets_(ctx.groups * ctx.n)
{
    checkOperandB(ctx, "OperandBPass");
    const int set_span = static_cast<int>(stride_ - 1);
    const int h0 = ctx.h0, h1 = ctx.h1;
    const OperandBStream *const bc = ctx.b_comp;
    // Zero-filled, so every slot no word lands in (a stored zero of
    // compressed B, and each set's trailing gated slot) reads +0.0.
    table_.assign(static_cast<std::size_t>(num_sets_ * stride_), 0.0f);
    MicroGlb glb(ctx.stream, ctx.stream_len, ctx.glb_row_words);
    Vfmu vfmu(glb, ctx.vfmu_capacity);
    std::vector<float> words(
        bc != nullptr ? static_cast<std::size_t>(set_span) : 0);
    for (std::int64_t s = 0; s < num_sets_; ++s) {
        float *const set = table_.data() + s * stride_;
        if (bc == nullptr) {
            // Dense B: a fixed shift of H1 blocks (H1*H0 words) lands
            // straight in the set's aligned blocks.
            const int got = vfmu.readShift(set_span, set);
            if (got != set_span)
                truncatedStream(s, set_span, got);
            continue;
        }
        // Compressed B: the level-1 count is the shift (0 for an
        // all-zero set, which moves no data and touches no counter),
        // and the level-2 block ends and level-3 offsets scatter each
        // word into its block.
        const std::int64_t count = bc->setCountAt(s);
        const int got = vfmu.readShift(static_cast<int>(count), words.data());
        if (got != count)
            truncatedStream(s, count, got);
        const std::int64_t first_block = s * h1;
        const std::int64_t set_start =
            first_block == 0 ? 0 : bc->blockEndAt(first_block - 1);
        std::int64_t w = set_start;
        for (int j = 0; j < h1; ++j) {
            float *const block = set + static_cast<std::int64_t>(j) * h0;
            const std::int64_t end = bc->blockEndAt(first_block + j);
            for (; w < end; ++w)
                block[bc->offsetAt(w)] =
                    words[static_cast<std::size_t>(w - set_start)];
        }
    }
    glb_stats_ = glb.stats();
    vfmu_stats_ = vfmu.stats();
}

RowGroupWorker::RowGroupWorker(const SimContext &ctx,
                               int group_capacity)
    : ctx_(ctx), group_capacity_(group_capacity), pass_(ctx.b_pass)
{
    if (group_capacity_ < 1)
        fatal(msgOf("RowGroupWorker: group capacity ", group_capacity_,
                    " < 1"));
    // Every read of the steady state is unchecked, so the hand-built
    // contexts of tests and benchmarks are checked here once against
    // what they point at.
    if (ctx_.a_cp == nullptr)
        fatal("RowGroupWorker: context has no compressed operand A");
    const HssSpec &spec = ctx_.a_cp->spec();
    const bool spec_two_rank = spec.numRanks() == 2;
    if (spec.numRanks() < 1 || spec.numRanks() > 2 ||
        spec_two_rank != ctx_.two_rank ||
        spec.rank(0).g != ctx_.g0 || spec.rank(0).h != ctx_.h0 ||
        (spec_two_rank ? spec.rank(1).g : 1) != ctx_.g1 ||
        (spec_two_rank ? spec.rank(1).h : 1) != ctx_.h1)
        fatal(msgOf("RowGroupWorker: context geometry (g0=", ctx_.g0,
                    " h0=", ctx_.h0, " g1=", ctx_.g1, " h1=", ctx_.h1,
                    " two_rank=", ctx_.two_rank,
                    ") disagrees with operand A's spec ", spec.str()));
    const std::int64_t set_span =
        static_cast<std::int64_t>(ctx_.h0) * ctx_.h1;
    if (ctx_.groups < 0 || ctx_.n < 0 ||
        ctx_.a_cp->cols() != ctx_.groups * set_span)
        fatal(msgOf("RowGroupWorker: ", ctx_.groups, " groups of ",
                    set_span, " do not span operand A's ",
                    ctx_.a_cp->cols(), " columns (n=", ctx_.n, ")"));
    checkOperandB(ctx_, "RowGroupWorker");
    if (pass_ != nullptr && (pass_->stride() != set_span + 1 ||
                             pass_->numSets() != ctx_.groups * ctx_.n))
        fatal(msgOf("RowGroupWorker: operand-B pass of ",
                    pass_->numSets(), " sets at stride ", pass_->stride(),
                    " does not hold ", ctx_.groups * ctx_.n,
                    " sets of ", set_span, " words"));

    const std::size_t cap = static_cast<std::size_t>(group_capacity_);
    const std::size_t lanes = cap * static_cast<std::size_t>(ctx_.g1) *
                              static_cast<std::size_t>(ctx_.g0);
    lane_a_.assign(lanes, 0.0);
    lane_b_.assign(lanes, 0);
}

void
RowGroupWorker::loadKGroup(std::int64_t g, std::int64_t row0, int nrows)
{
    const int g0 = ctx_.g0, g1 = ctx_.g1, h0 = ctx_.h0;
    const int lanes_per_row = g1 * g0;
    const std::int32_t zero_slot = h0 * ctx_.h1;
    const int full = nrows / kTileRows * kTileRows;
    for (int r = 0; r < nrows; ++r) {
        // Row r's lane j sits at [j][r - first] of the tile that
        // starts at row `first`: a full tile, or r alone past them.
        const int width = r < full ? kTileRows : 1;
        const int first = r < full ? r / kTileRows * kTileRows : r;
        const std::size_t base =
            static_cast<std::size_t>(first * lanes_per_row + r - first);
        double *a_out = lane_a_.data() + base;
        std::int32_t *b_out = lane_b_.data() + base;
        const HierarchicalCpRow &cp = ctx_.a_cp->row(row0 + r);
        const float *cp_vals = cp.values().data();
        const std::uint8_t *cp_offs0 = cp.offsets(0).data();
        const std::uint8_t *cp_offs1 =
            ctx_.two_rank ? cp.offsets(1).data() : nullptr;
        for (int p = 0; p < g1; ++p) {
            // Rank-1 skipping SAF: this PE's selected block (real or
            // dummy) stays stationary for the whole K-group.
            const std::int64_t entry = g * g1 + p;
            const std::size_t block = ctx_.two_rank ? cp_offs1[entry] : 0;
            const float *vals = cp_vals + entry * g0;
            const std::uint8_t *offs = cp_offs0 + entry * g0;
            bool all_dummy = true;
            for (int l = 0; l < g0; ++l) {
                // Rank-0 mux: a dummy lane (A = 0) or an offset past
                // the block selects the zero slot, so it always gates.
                const float a = vals[l];
                const bool reads_b = a != 0.0f && offs[l] < h0;
                const int j = p * g0 + l;
                a_out[j * width] = static_cast<double>(a);
                b_out[j * width] =
                    reads_b ? static_cast<std::int32_t>(block) * h0 + offs[l]
                            : zero_slot;
                all_dummy &= a == 0.0f;
            }
            stats_.dummy_blocks += all_dummy;
        }
    }
}

void
RowGroupWorker::runGroup(std::int64_t row0, int nrows, DenseTensor &out)
{
    if (nrows < 1 || nrows > group_capacity_)
        fatal(msgOf("RowGroupWorker: group of ", nrows,
                    " rows exceeds capacity ", group_capacity_));
    const std::int64_t n = ctx_.n;
    if (out.shape().rank() != 2 || out.shape().dim(1).extent != n ||
        row0 < 0 || out.shape().dim(0).extent < row0 + nrows)
        fatal(msgOf("RowGroupWorker: output ", out.shape().str(),
                    " cannot hold rows [", row0, ", ", row0 + nrows,
                    ") of ", n, " columns"));
    if (pass_ == nullptr) {
        // A hand-built context carries no shared pass: decode operand B
        // once here, as run() does before its row groups, and keep it.
        own_pass_ = std::make_unique<OperandBPass>(ctx_);
        pass_ = own_pass_.get();
    }
    const int g0 = ctx_.g0, g1 = ctx_.g1;
    const OperandBStream *const bc = ctx_.b_comp;
    const int lanes_per_row = g1 * g0;

    const double *const lane_a = lane_a_.data();
    const std::int32_t *const lane_b = lane_b_.data();
    float *const out_data = out.data().data();
    const int full = nrows / kTileRows * kTileRows;
    std::int64_t effectual = 0;
    for (std::int64_t g = 0; g < ctx_.groups; ++g) {
        loadKGroup(g, row0, nrows);

        for (std::int64_t col = 0; col < n; ++col) {
            const std::int64_t set_idx = g * n + col;
            // An all-zero compressed set: every lane gates and each
            // row's partial sum is +0.0. Adding +0.0 leaves an output
            // unchanged (outputs start at +0.0 and never become -0.0),
            // and every counter the step moves is charged in closed
            // form below, so the set costs nothing here.
            if (bc != nullptr && bc->setCountAt(set_idx) == 0)
                continue;
            const float *const set = pass_->set(set_idx);

            // One processing step for every row of the group, a tile
            // of rows at a time — the exact serial per-row operation
            // sequence, so outputs are byte-identical to ungrouped
            // execution.
            float *const out_col = out_data + row0 * n + col;
            int r = 0;
            for (; r < full; r += kTileRows)
                effectual += stepTile<kTileRows>(lane_a + r * lanes_per_row,
                                    lane_b + r * lanes_per_row, set, g1,
                                    g0, out_col + r * n, n);
            for (; r < nrows; ++r)
                effectual += stepTile<1>(lane_a + r * lanes_per_row,
                            lane_b + r * lanes_per_row, set, g1, g0,
                            out_col + r * n, n);
        }
    }

    // Closed-form charges: every row of the group takes one step per
    // (K-group, column) and updates its RF once per step, loads G1 * G0
    // stationary A words per K-group, and selects through all G1 * G0
    // muxes on every step; every lane that was not effectual gated.
    const std::int64_t steps = ctx_.groups * n * nrows;
    const std::int64_t lane_steps = steps * lanes_per_row;
    stats_.cycles += steps;
    stats_.psum_updates += steps;
    stats_.a_words_loaded += ctx_.groups * nrows * lanes_per_row;
    stats_.pe.mux_selects += lane_steps;
    stats_.pe.mac_ops += effectual;
    stats_.pe.gated_macs += lane_steps - effectual;

    // Fold the operand-B pass into the worker aggregate. The pass ran
    // once, but is accounted restream-equivalently: its counters are a
    // pure function of the stream and shift sequence (row-independent),
    // so each row of the group is charged one full pass — keeping
    // every total byte-identical to ungrouped execution.
    stats_.glb_b.accumulateScaled(pass_->glbStats(), nrows);
    stats_.vfmu.accumulateScaled(pass_->vfmuStats(), nrows);
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
    const int h0 = a_spec.rank(0).h;
    const int h1 = a_spec.numRanks() > 1 ? a_spec.rank(1).h : 1;
    const std::int64_t set_span = static_cast<std::int64_t>(h0) * h1;
    if (k % set_span != 0)
        fatal(msgOf("HighlightSimulator: K=", k,
                    " not divisible by H0*H1=", set_span));

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
    // once-built stream + metadata, the resolved geometry, and operand
    // B decoded once — the single VFMU stream the PE array broadcasts
    // to every output row.
    SimContext ctx = makeSimContext(a_cp, b_comp.get(), b_stream, n, config_);
    const OperandBPass b_pass(ctx);
    ctx.b_pass = &b_pass;

    SimResult result{DenseTensor(TensorShape({{"M", m}, {"N", n}})), {}};

    // Group-parallel steady state: rows are partitioned into fixed
    // contiguous groups of `group` rows; each group steps its rows
    // against the shared pass, and disjoint groups are shared-nothing,
    // so they fan out across the runtime pool. One RowGroupWorker per
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
