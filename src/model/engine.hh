/**
 * @file
 * The shared analytical traffic engine (Sparseloop methodology [54]).
 *
 * Every accelerator model reduces its design decisions to a
 * TrafficParams record; the engine turns that record plus the
 * architecture and component library into cycle counts and a
 * per-component energy breakdown under one canonical A-stationary
 * tiling (see dataflow/mapping.hh), or an output-stationary one for
 * outer-product designs:
 *
 *   cycles  = M*N*K * time_fraction / (num_macs * utilization)
 *   DRAM    = A once + B per M-tile pass + outputs once
 *   GLB     = A re-read per N-tile pass; B streamed per compute step
 *             (spatial_k words per step, scaled by the fetch fraction);
 *             outputs written once
 *   RF      = partial-sum read+write per step per output row
 *             (spatially reduced), or per effectual MAC for
 *             outer-product designs (DSTC's accumulation tax)
 *   MAC     = effectual MACs at full energy; occupied-but-ineffectual
 *             lane slots at gated energy
 *   SAF     = per-step muxing + per-B-fetch extras (VFMU)
 *   meta    = stored-word metadata prorated by field width
 *
 * All knobs are densities/fractions in [0, 1], so the same formulas
 * serve dense, structured, and unstructured designs.
 */

#ifndef HIGHLIGHT_MODEL_ENGINE_HH
#define HIGHLIGHT_MODEL_ENGINE_HH

#include <cstdint>

#include "arch/arch_spec.hh"
#include "dataflow/mapping.hh"
#include "energy/components.hh"
#include "model/result.hh"

namespace highlight
{

/** Partial-sum accumulation style. */
enum class AccumStyle
{
    SpatialReduce, ///< K-lanes reduced before the RF (inner product).
    /**
     * Every effectual MAC updates the RF (DSTC). The design keeps an
     * output tile of 32-bit partial sums resident instead of an A
     * tile, so the GLB tile extent is set by the psum footprint and
     * operands re-stream per output tile (DSTC's dataflow tax,
     * Sec 2.2.1).
     */
    OuterProduct,
};

/**
 * The design-and-workload knobs consumed by the engine.
 */
struct TrafficParams
{
    // --- workload ---
    std::int64_t m = 0, k = 0, n = 0;

    // --- storage behaviour ---
    double a_stored_density = 1.0;    ///< Fraction of A words stored.
    double b_stored_density = 1.0;    ///< Fraction of B words stored.
    double a_meta_bits_per_word = 0.0;///< Metadata bits per stored A word.
    double b_meta_bits_per_word = 0.0;///< Metadata bits per stored B word.

    // --- compute behaviour ---
    /** Fraction of dense compute steps the design executes. */
    double time_fraction = 1.0;
    /** Lane utilization divisor (workload balance). */
    double utilization = 1.0;
    /** Fraction of M*N*K multiplications that are effectual. */
    double effectual_mac_fraction = 1.0;
    /** Ineffectual occupied lanes burn gated (true) or full energy. */
    bool gate_ineffectual = false;

    // --- traffic behaviour ---
    /** Fraction of B fetch slots that actually read the GLB. */
    double b_fetch_fraction = 1.0;
    AccumStyle accum = AccumStyle::SpatialReduce;
    /** Scale on RF partial-sum traffic (activation gating savings). */
    double psum_fraction = 1.0;
    /**
     * Energy per accumulation access for OuterProduct designs (a large
     * banked buffer holding 32-bit psums); < 0 uses the plain RF cost.
     */
    double accum_access_pj = -1.0;
    /**
     * Designs whose register files are too small to hold operands
     * stationary (S2TA's 64B RFs) re-read A from the GLB every step.
     */
    bool a_stream_per_step = false;

    // --- SAF costs ---
    double mux_pj_per_step = 0.0;        ///< Whole-chip mux energy/step.
    double saf_pj_per_b_fetch = 0.0;     ///< e.g. VFMU buffer per word.
};

/**
 * Run the engine: produce cycles and the energy breakdown. The caller
 * (each accelerator model) fills in design identity, area, and notes.
 */
EvalResult evaluateTraffic(const ArchSpec &arch,
                           const ComponentLibrary &lib,
                           const TrafficParams &p);

} // namespace highlight

#endif // HIGHLIGHT_MODEL_ENGINE_HH
