#include "microsim/simulator.hh"

#include <algorithm>
#include <cmath>
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
 * Cold path of the short-read check: building the message costs an
 * ostringstream, which must stay out of the steady-state loop body.
 */
[[noreturn]] __attribute__((noinline)) void
truncatedStream(std::int64_t set_idx, std::int64_t need,
                std::int64_t got)
{
    panic(msgOf("OperandBPass: truncated operand-B stream — set ",
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

/**
 * Fatal if rank-2 operand `name` holds a NaN, naming the first one's
 * row and column (why run() refuses NaN: see its documentation).
 */
void
rejectNan(const DenseTensor &t, const char *name)
{
    const std::vector<float> &v = t.data();
    // A branch-free scan first (it vectorizes); the search only runs
    // once a NaN is known to be there.
    unsigned any_nan = 0;
    for (const float x : v)
        any_nan |= static_cast<unsigned>(std::isnan(x));
    if (any_nan == 0)
        return;
    const auto at = static_cast<std::int64_t>(
        std::find_if(v.begin(), v.end(),
                     [](float x) { return std::isnan(x); }) -
        v.begin());
    const std::int64_t cols = t.shape().dim(1).extent;
    fatal(msgOf("HighlightSimulator: operand ", name, " holds NaN at row ",
                at / cols, ", column ", at % cols));
}

} // namespace

OperandBPass::OperandBPass(const SimContext &ctx)
    : groups_(ctx.groups),
      slots_(static_cast<std::int64_t>(ctx.h0) * ctx.h1), columns_(ctx.n)
{
    checkOperandB(ctx, "OperandBPass");
    const int h0 = ctx.h0, h1 = ctx.h1;
    const int set_span = static_cast<int>(slots_);
    const std::int64_t n = columns_;
    const OperandBStream *const bc = ctx.b_comp;
    // Zero-filled, so every word no stored nonzero of compressed B
    // lands in reads +0.0.
    table_.assign(static_cast<std::size_t>(groups_ * slots_ * n), 0.0f);
    nonzeros_.assign(static_cast<std::size_t>(groups_ * slots_), 0);
    MicroGlb glb(ctx.stream, ctx.stream_len, ctx.glb_row_words);
    Vfmu vfmu(glb, ctx.vfmu_capacity);
    std::vector<float> words(static_cast<std::size_t>(slots_));
    for (std::int64_t g = 0; g < groups_; ++g) {
        float *const group = table_.data() + g * slots_ * n;
        std::int64_t *const nonzeros = nonzeros_.data() + g * slots_;
        // Word `word` of the set lands in column `col` of slot `s`.
        const auto place = [&](int s, std::int64_t col, float word) {
            group[s * n + col] = word;
            nonzeros[s] += word != 0.0f;
        };
        for (std::int64_t col = 0; col < n; ++col) {
            const std::int64_t set_idx = g * n + col;
            if (bc == nullptr) {
                // Dense B: a fixed shift of H1 blocks (H1*H0 words),
                // word i of which is slot i.
                const int got = vfmu.readShift(set_span, words.data());
                if (got != set_span)
                    truncatedStream(set_idx, set_span, got);
                for (int s = 0; s < set_span; ++s)
                    place(s, col, words[static_cast<std::size_t>(s)]);
                continue;
            }
            // Compressed B: the level-1 count is the shift (0 for an
            // all-zero set, which moves no data and touches no
            // counter), and the level-2 block ends and level-3 offsets
            // scatter each word into its slot.
            const std::int64_t count = bc->setCountAt(set_idx);
            const int got =
                vfmu.readShift(static_cast<int>(count), words.data());
            if (got != count)
                truncatedStream(set_idx, count, got);
            const std::int64_t first_block = set_idx * h1;
            const std::int64_t set_start =
                first_block == 0 ? 0 : bc->blockEndAt(first_block - 1);
            std::int64_t w = set_start;
            for (int j = 0; j < h1; ++j) {
                const std::int64_t end = bc->blockEndAt(first_block + j);
                for (; w < end; ++w)
                    place(j * h0 + bc->offsetAt(w), col,
                          words[static_cast<std::size_t>(w - set_start)]);
            }
        }
    }
    glb_stats_ = glb.stats();
    vfmu_stats_ = vfmu.stats();
}

RowGroupWorker::RowGroupWorker(const SimContext &ctx,
                               int group_capacity)
    : ctx_(ctx), group_capacity_(group_capacity), kernel_(laneKernel()),
      pass_(ctx.b_pass)
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
    if (pass_ != nullptr && (pass_->numKGroups() != ctx_.groups ||
                             pass_->slotsPerGroup() != set_span ||
                             pass_->numColumns() != ctx_.n))
        fatal(msgOf("RowGroupWorker: operand-B pass of ",
                    pass_->numKGroups(), " K-groups x ",
                    pass_->slotsPerGroup(), " slots x ",
                    pass_->numColumns(), " columns does not hold ",
                    ctx_.groups, " K-groups x ", set_span, " slots x ",
                    ctx_.n, " columns"));

    pe_sum_.assign(static_cast<std::size_t>(ctx_.n), 0.0);
    row_sum_.assign(static_cast<std::size_t>(ctx_.n), 0.0);
}

void
RowGroupWorker::runGroup(std::int64_t row0, int nrows, DenseTensor &out)
{
    runGroup(row0, nrows, out, kernel_);
}

void
RowGroupWorker::runGroup(std::int64_t row0, int nrows, DenseTensor &out,
                         LaneKernel kernel)
{
    if (nrows < 1 || nrows > group_capacity_)
        fatal(msgOf("RowGroupWorker: group of ", nrows,
                    " rows exceeds capacity ", group_capacity_));
    const std::int64_t n = ctx_.n;
    if (out.shape().rank() != 2 || out.shape().dim(1).extent != n ||
        row0 < 0 || out.shape().dim(0).extent < row0 + nrows ||
        ctx_.a_cp->numRows() < row0 + nrows)
        fatal(msgOf("RowGroupWorker: output ", out.shape().str(),
                    " or operand A's ", ctx_.a_cp->numRows(),
                    " rows cannot hold rows [", row0, ", ", row0 + nrows,
                    ") of ", n, " columns"));
    if (pass_ == nullptr) {
        // A hand-built context carries no shared pass: decode operand B
        // once here, as run() does before its row groups, and keep it.
        own_pass_ = std::make_unique<OperandBPass>(ctx_);
        pass_ = own_pass_.get();
    }
    const LaneCounts counts =
        kernel(LaneGroup{&ctx_, pass_, row0, nrows, pe_sum_.data(),
                         row_sum_.data(), out.data().data()});

    // Closed-form charges: every row of the group takes one step per
    // (K-group, column) and updates its RF once per step, loads G1 * G0
    // stationary A words per K-group, and selects through all G1 * G0
    // muxes on every step; every lane that was not effectual gated.
    const std::int64_t lanes_per_row =
        static_cast<std::int64_t>(ctx_.g1) * ctx_.g0;
    const std::int64_t steps = ctx_.groups * n * nrows;
    const std::int64_t lane_steps = steps * lanes_per_row;
    stats_.cycles += steps;
    stats_.psum_updates += steps;
    stats_.a_words_loaded += ctx_.groups * nrows * lanes_per_row;
    stats_.dummy_blocks += counts.dummy_blocks;
    stats_.pe.mux_selects += lane_steps;
    stats_.pe.mac_ops += counts.effectual;
    stats_.pe.gated_macs += lane_steps - counts.effectual;

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
    rejectNan(a, "A");
    rejectNan(b, "B");

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
