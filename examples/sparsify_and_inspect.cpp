/**
 * @file
 * Walkthrough of the paper's Figs 4-5 and 9: build a small weight
 * matrix in its (RS, C) view, apply the example two-rank HSS pattern
 * with the magnitude/scaled-L2 sparsifier, verify conformance, and
 * inspect the hierarchical CP compression metadata.
 */

#include <iostream>

#include "common/logging.hh"
#include "common/random.hh"
#include "format/hierarchical_cp.hh"
#include "sparsity/conformance.hh"
#include "sparsity/sparsify.hh"
#include "sparsity/spec.hh"
#include "tensor/generator.hh"

int
main()
try {
    using namespace highlight;

    // Fig 4(b)'s view of a weight tensor with C channels and 2x2
    // kernels: one row per flattened RS position, C innermost.
    Rng rng(2023);
    const auto view = randomDense(TensorShape({{"RS", 4}, {"C", 16}}), rng);
    std::cout << "Dense weight view " << view.shape().str() << "\n\n";

    // Fig 5: the example two-rank HSS, RS->C2->C1(3:4)->C0(2:4).
    const SparsitySpec paper_spec = exampleTwoRankHssSpec();
    std::cout << "Fibertree-based specification: " << paper_spec.str()
              << "\n";
    const HssSpec hss({GhPattern(2, 4), GhPattern(3, 4)});
    std::cout << "Succinct form: " << hss.str() << ", density "
              << hss.density() << " (sparsity " << hss.sparsity()
              << ")\n\n";

    // Sec 4.2: sparsify lower-to-higher with magnitude / scaled-L2.
    const auto sparse = hssSparsify(view, hss);
    const auto report = checkHss(sparse, hss);
    std::cout << "Sparsified: density " << sparse.density()
              << ", conforms: " << (report.conforms ? "yes" : "NO")
              << "\n";

    // Fig 9: hierarchical CP compression of the first row.
    const HierarchicalCpMatrix cp(sparse, hss);
    const auto &row0 = cp.row(0);
    std::cout << "Row 0 hierarchical CP compression:\n  data words: "
              << row0.dataWords() << " (of " << view.shape().dim(1).extent
              << " dense)\n  rank-1 block CPs:";
    for (auto off : row0.offsets(1))
        std::cout << " " << static_cast<int>(off);
    std::cout << "\n  rank-0 value CPs: ";
    for (auto off : row0.offsets(0))
        std::cout << " " << static_cast<int>(off);
    std::cout << "\n  metadata bits: " << row0.metadataBits()
              << "\n  matrix compression ratio vs dense 16-bit: "
              << cp.compressionRatio() << "\n";

    // Round-trip check.
    std::cout << "  lossless round trip: "
              << (cp.decompress().equals(sparse) ? "yes" : "NO") << "\n";
    return 0;
} catch (const highlight::FatalError &e) {
    // A bad HIGHLIGHT_THREADS surfaces here, when the pool is built.
    std::cerr << "sparsify_and_inspect: " << e.what() << "\n";
    return 1;
}
