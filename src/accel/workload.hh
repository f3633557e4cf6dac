/**
 * @file
 * GEMM workloads with per-operand sparsity descriptions.
 *
 * Every DNN layer reaches the accelerators as a matrix multiplication
 * (paper Sec 6.1): operand A (weights — dense or structured) times
 * operand B (activations — dense or unstructured). Synthetic workloads
 * (Sec 7.1.2) use 1024x1024 operands with swept sparsity degrees.
 */

#ifndef HIGHLIGHT_ACCEL_WORKLOAD_HH
#define HIGHLIGHT_ACCEL_WORKLOAD_HH

#include <cstdint>
#include <string>

#include "sparsity/hss.hh"

namespace highlight
{

/** How an operand's zeros are distributed. */
enum class PatternKind
{
    Dense,        ///< No zeros assumed exploitable.
    Unstructured, ///< Arbitrary zero locations at the given density.
    Hss,          ///< Conforms to the attached HssSpec.
};

/** One operand's sparsity description. */
struct OperandSparsity
{
    PatternKind kind = PatternKind::Dense;
    double density = 1.0;
    HssSpec hss; ///< Valid when kind == Hss.

    static OperandSparsity dense();
    static OperandSparsity unstructured(double density);
    static OperandSparsity structured(const HssSpec &spec);

    double sparsity() const { return 1.0 - density; }
    std::string str() const;
};

/** A GEMM workload: C[M][N] += A[M][K] * B[K][N]. */
struct GemmWorkload
{
    std::string name;
    std::int64_t m = 0, k = 0, n = 0;
    OperandSparsity a;
    OperandSparsity b;

    /**
     * The operand-swapped workload (paper Sec 7.1.1: MM accelerators
     * treat operands interchangeably): C^T = B^T * A^T exchanges the
     * roles of A and B and of M and N.
     */
    GemmWorkload swapped() const;

    std::string str() const;
};

/**
 * The synthetic suite of Sec 7.1.2 / Fig 13: 1024^3 GEMMs with
 * A sparsity in {0, 50, 75}% and B sparsity in {0, 25, 50, 75}%.
 * Operand A is described as the sparsest HighLight-supported HSS
 * pattern of that density (other designs reinterpret it per their own
 * support); operand B is unstructured.
 */
std::vector<GemmWorkload> syntheticSuite();

} // namespace highlight

#endif // HIGHLIGHT_ACCEL_WORKLOAD_HH
