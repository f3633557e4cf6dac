#include "format/hierarchical_cp.hh"

#include <algorithm>
#include <functional>
#include <memory>

#include "common/logging.hh"
#include "runtime/thread_pool.hh"

namespace highlight
{

int
bitsFor(std::int64_t n)
{
    if (n <= 1)
        return 1;
    int bits = 0;
    std::int64_t v = n - 1;
    while (v > 0) {
        ++bits;
        v >>= 1;
    }
    return bits;
}

HierarchicalCpRow::HierarchicalCpRow(const float *row, std::int64_t cols,
                                     const HssSpec &spec)
    : spec_(spec), cols_(cols)
{
    CpRowScratch scratch;
    compress(row, scratch);
}

HierarchicalCpRow::HierarchicalCpRow(const float *row, std::int64_t cols,
                                     const HssSpec &spec,
                                     CpRowScratch &scratch)
    : spec_(spec), cols_(cols)
{
    compress(row, scratch);
}

void
HierarchicalCpRow::compress(const float *row, CpRowScratch &scratch)
{
    if (cols_ % spec_.totalSpan() != 0)
        fatal(msgOf("HierarchicalCpRow: cols ", cols_,
                    " not divisible by HSS span ", spec_.totalSpan()));
    const std::size_t nranks = spec_.numRanks();
    for (std::size_t n = 0; n < nranks; ++n) {
        if (spec_.rank(n).h > kMaxOffsetSpan)
            fatal(msgOf("HierarchicalCpRow: rank ", n, " H=",
                        spec_.rank(n).h, " exceeds ", kMaxOffsetSpan,
                        ", the most its 8-bit offsets can address"));
    }
    offsets_.assign(nranks, {});

    // The padded layout makes every size exact up front: each rank-n
    // group stores exactly Gn entries, so one reserve per vector is the
    // only payload allocation the whole compression performs.
    const std::int64_t top_span = spec_.totalSpan();
    const std::int64_t top_groups = cols_ / top_span;
    std::int64_t entries = top_groups;
    for (std::size_t n = nranks; n > 0; --n) {
        entries *= spec_.rank(n - 1).g;
        offsets_[n - 1].reserve(static_cast<std::size_t>(entries));
    }
    values_.reserve(static_cast<std::size_t>(entries));

    // Warm the per-rank scratch up (no-ops once sized: resize to the
    // same count and reserve within capacity don't allocate).
    scratch.present.resize(nranks);
    for (std::size_t n = 0; n < nranks; ++n)
        scratch.present[n].reserve(
            static_cast<std::size_t>(spec_.rank(n).h));

    for (std::int64_t g = 0; g < top_groups; ++g)
        emitFiber(row, g * top_span, nranks - 1, scratch);
}

void
HierarchicalCpRow::emitDummy(std::size_t n)
{
    // An all-dummy fiber subtree (used to pad groups whose real
    // occupancy is below G).
    const int g = spec_.rank(n).g;
    for (int i = 0; i < g; ++i) {
        offsets_[n].push_back(0);
        if (n == 0)
            values_.push_back(0.0f);
        else
            emitDummy(n - 1);
    }
}

void
HierarchicalCpRow::emitFiber(const float *row, std::int64_t base,
                             std::size_t n, CpRowScratch &scratch)
{
    const GhPattern &p = spec_.rank(n);
    const std::int64_t sub_span = spec_.blockSpan(n);
    // Find non-empty sub-payloads among the Hn coordinates. The
    // recursion holds one live list per rank, so rank n owns scratch
    // slot n.
    std::vector<int> &present = scratch.present[n];
    present.clear();
    for (int c = 0; c < p.h; ++c) {
        const std::int64_t start = base + c * sub_span;
        bool nonzero = false;
        for (std::int64_t i = 0; i < sub_span && !nonzero; ++i)
            nonzero = row[start + i] != 0.0f;
        if (nonzero)
            present.push_back(c);
    }
    if (static_cast<int>(present.size()) > p.g)
        fatal(msgOf("HierarchicalCpRow: rank ", n, " fiber at value ",
                    base, " has occupancy ", present.size(),
                    " > G=", p.g, " (operand does not conform to ",
                    spec_.str(), ")"));
    for (int slot = 0; slot < p.g; ++slot) {
        if (slot < static_cast<int>(present.size())) {
            const int c = present[static_cast<std::size_t>(slot)];
            offsets_[n].push_back(static_cast<std::uint8_t>(c));
            if (n == 0)
                values_.push_back(row[base + c]);
            else
                emitFiber(row, base + c * sub_span, n - 1, scratch);
        } else {
            offsets_[n].push_back(0);
            if (n == 0)
                values_.push_back(0.0f);
            else
                emitDummy(n - 1);
        }
    }
}

std::vector<float>
HierarchicalCpRow::decompress() const
{
    std::vector<float> row(static_cast<std::size_t>(cols_), 0.0f);
    std::vector<std::size_t> cursor(spec_.numRanks(), 0);
    std::size_t value_cursor = 0;

    std::function<void(std::int64_t, std::size_t)> readFiber =
        [&](std::int64_t base, std::size_t n) {
        const GhPattern &p = spec_.rank(n);
        const std::int64_t sub_span = spec_.blockSpan(n);
        for (int slot = 0; slot < p.g; ++slot) {
            const std::uint8_t off = offsets_[n][cursor[n]++];
            if (n == 0) {
                const float v = values_[value_cursor++];
                // Dummy entries carry value 0; writing them is a no-op
                // on the zero-initialized row.
                if (v != 0.0f)
                    row[static_cast<std::size_t>(base + off)] = v;
            } else {
                readFiber(base + off * sub_span, n - 1);
            }
        }
    };

    const std::int64_t top_span = spec_.totalSpan();
    for (std::int64_t g = 0; g < cols_ / top_span; ++g)
        readFiber(g * top_span, spec_.numRanks() - 1);
    return row;
}

const std::vector<std::uint8_t> &
HierarchicalCpRow::offsets(std::size_t rank) const
{
    if (rank >= offsets_.size())
        panic(msgOf("offsets: rank ", rank, " out of range"));
    return offsets_[rank];
}

std::int64_t
HierarchicalCpRow::metadataBits() const
{
    std::int64_t bits = 0;
    for (std::size_t n = 0; n < offsets_.size(); ++n) {
        bits += static_cast<std::int64_t>(offsets_[n].size()) *
                bitsFor(spec_.rank(n).h);
    }
    return bits;
}

namespace
{

/**
 * Rows compressed per parallel work item. Rows are independent, so the
 * block size affects only scheduling, never the result; a block of
 * several rows amortizes the slot lease over enough work to dominate
 * it while still splitting bench-sized matrices (tens to hundreds of
 * rows) across every core.
 */
constexpr std::int64_t kCompressRowBlock = 8;

} // namespace

HierarchicalCpMatrix::HierarchicalCpMatrix(const DenseTensor &matrix,
                                           const HssSpec &spec)
    : shape_(matrix.shape()), spec_(spec)
{
    if (shape_.rank() != 2)
        fatal("HierarchicalCpMatrix: expected a rank-2 matrix");
    const std::int64_t rows = shape_.dim(0).extent;
    const std::int64_t cols = shape_.dim(1).extent;
    const float *data = matrix.data().data();

    // Parallel compression across fixed row-blocks: the row table is
    // sized up front (empty placeholder rows), each block fills its
    // own disjoint slots, and each slot's content is a pure function
    // of (row data, spec) — so the stitched-together matrix is
    // byte-identical to serial compression at any thread count. Each
    // worker slot reuses one CpRowScratch across all its rows
    // (H2Pack's per-thread-buffer idiom).
    rows_.resize(static_cast<std::size_t>(rows));
    ThreadPool &pool = ThreadPool::global();
    const std::int64_t num_blocks =
        (rows + kCompressRowBlock - 1) / kCompressRowBlock;
    const std::size_t num_workers = static_cast<std::size_t>(
        std::min<std::int64_t>(std::max<std::int64_t>(num_blocks, 1),
                               pool.numThreads()));
    WorkerSlots<CpRowScratch> scratch(num_workers, [](std::size_t) {
        return std::make_unique<CpRowScratch>();
    });
    pool.parallelForGroups(
        static_cast<std::size_t>(rows),
        static_cast<std::size_t>(kCompressRowBlock),
        [&](std::size_t begin, std::size_t end) {
            auto s = scratch.acquire();
            for (std::size_t r = begin; r < end; ++r) {
                rows_[r] = HierarchicalCpRow(
                    data + static_cast<std::int64_t>(r) * cols, cols,
                    spec, *s);
            }
        });
}

const HierarchicalCpRow &
HierarchicalCpMatrix::row(std::int64_t r) const
{
    if (r < 0 || r >= numRows())
        panic(msgOf("HierarchicalCpMatrix::row: ", r, " out of range"));
    return rows_[static_cast<std::size_t>(r)];
}

DenseTensor
HierarchicalCpMatrix::decompress() const
{
    DenseTensor out{shape_};
    const std::int64_t cols = shape_.dim(1).extent;
    for (std::int64_t r = 0; r < numRows(); ++r) {
        const auto row = rows_[static_cast<std::size_t>(r)].decompress();
        for (std::int64_t c = 0; c < cols; ++c)
            out.set2(r, c, row[static_cast<std::size_t>(c)]);
    }
    return out;
}

std::int64_t
HierarchicalCpMatrix::dataWords() const
{
    std::int64_t words = 0;
    for (const auto &row : rows_)
        words += row.dataWords();
    return words;
}

std::int64_t
HierarchicalCpMatrix::metadataBits() const
{
    std::int64_t bits = 0;
    for (const auto &row : rows_)
        bits += row.metadataBits();
    return bits;
}

double
HierarchicalCpMatrix::compressionRatio(int word_bits) const
{
    const double dense_bits =
        static_cast<double>(shape_.numel()) * word_bits;
    const double stored_bits =
        static_cast<double>(dataWords()) * word_bits +
        static_cast<double>(metadataBits());
    return dense_bits / stored_bits;
}

} // namespace highlight
