/**
 * @file
 * Cycle-level walkthrough of the down-sized HighLight datapath
 * (paper Sec 6, Figs 9-12): two PEs, C1(2:4)->C0(2:4) weights,
 * streaming operand B through the VFMU — first dense, then compressed
 * with the three-level metadata — and checking exact numerical
 * equivalence with a reference GEMM.
 */

#include <iostream>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "microsim/simulator.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

int
main()
try {
    using namespace highlight;

    // The paper's down-sized configuration: C1(2:4) -> C0(2:4)
    // weights processed by 2 PEs with 2 MACs each (Fig 10).
    const HssSpec spec({GhPattern(2, 4), GhPattern(2, 4)});
    std::cout << "Operand A pattern: " << spec.str() << " (density "
              << spec.density() << ", " << spec.sparsity() * 100
              << "% sparse)\n";

    Rng rng(7);
    const std::int64_t m = 4, k = 64, n = 8;
    const auto a = hssSparsify(
        randomDense(TensorShape({{"M", m}, {"K", k}}), rng), spec);
    const auto b_dense =
        randomDense(TensorShape({{"K", k}, {"N", n}}), rng);
    const auto b_sparse = unstructuredSparsify(b_dense, 0.6);

    const auto reference_dense = referenceGemm(a, b_dense);
    const auto reference_sparse = referenceGemm(a, b_sparse);

    TextTable t("Micro-simulation results (" + std::to_string(m) + "x" +
                std::to_string(k) + "x" + std::to_string(n) + " GEMM)");
    t.setHeader({"scenario", "cycles", "speedup vs dense", "MACs",
                 "gated", "GLB-B words", "VFMU skipped fetches",
                 "max |err|"});

    auto run = [&](const char *name, const DenseTensor &b,
                   const DenseTensor &reference, bool compress) {
        MicrosimConfig cfg;
        cfg.compress_b = compress;
        const auto r = HighlightSimulator(cfg).run(a, spec, b);
        t.addRow({name, std::to_string(r.stats.cycles),
                  TextTable::fmt(r.speedupVsDense(m, k, n), 2),
                  std::to_string(r.stats.pe.mac_ops),
                  std::to_string(r.stats.pe.gated_macs),
                  std::to_string(r.stats.glb_b.words_read),
                  std::to_string(r.stats.vfmu.skipped_fetches),
                  TextTable::fmt(r.output.maxAbsDiff(reference), 6)});
    };

    run("dense B, uncompressed", b_dense, reference_dense, false);
    run("60% sparse B, uncompressed", b_sparse, reference_sparse,
        false);
    run("60% sparse B, compressed (Sec 6.4)", b_sparse,
        reference_sparse, true);

    t.print(std::cout);

    std::cout
        << "\nObservations (matching the paper):\n"
        << " - hierarchical skipping gives exactly 1/density = 4x "
           "speedup with perfect balance;\n"
        << " - B sparsity gates MACs (energy) but never changes the "
           "cycle count (Sec 6.4);\n"
        << " - compressing B cuts GLB traffic and lets the VFMU skip "
           "fetches when enough\n   valid words are buffered "
           "(Fig 12(b));\n"
        << " - every configuration reproduces the reference GEMM "
           "exactly.\n";
    return 0;
} catch (const highlight::FatalError &e) {
    // A bad HIGHLIGHT_THREADS surfaces here, when the pool is built.
    std::cerr << "microsim_walkthrough: " << e.what() << "\n";
    return 1;
}
