#include "model/engine.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace highlight
{

EvalResult
evaluateTraffic(const ArchSpec &arch, const ComponentLibrary &lib,
                const TrafficParams &p)
{
    if (p.m < 1 || p.k < 1 || p.n < 1)
        fatal(msgOf("evaluateTraffic: bad GEMM ", p.m, "x", p.k, "x",
                    p.n));
    if (!(p.time_fraction > 0.0) || !(p.utilization > 0.0))
        fatal("evaluateTraffic: time_fraction/utilization must be > 0");

    EvalResult r;
    r.design = arch.name;
    r.clock_mhz = lib.tech().clock_mhz;

    const double dense_macs = static_cast<double>(p.m) *
                              static_cast<double>(p.k) *
                              static_cast<double>(p.n);
    const double n_macs = static_cast<double>(arch.numMacs());
    const double spatial_k = static_cast<double>(arch.spatial_k);
    const double spatial_m = static_cast<double>(arch.spatialM());

    // --- time ---
    const double steps =
        dense_macs * p.time_fraction / (n_macs * p.utilization);
    r.cycles = std::ceil(steps);

    // --- tiling (compression widens tiles, cutting DRAM passes) ---
    // A metadata partition that carries no metadata (dense-mode
    // operation of a sparse design) is banked SRAM the design can
    // repurpose for data, which is how sparse designs reach dense-
    // accelerator parity (Sec 1's second goal).
    ArchSpec eff_arch = arch;
    if (p.a_meta_bits_per_word == 0.0 && p.b_meta_bits_per_word == 0.0) {
        eff_arch.glb_data_kb += eff_arch.glb_meta_kb;
        eff_arch.glb_meta_kb = 0.0;
    }
    GemmTiling tiling = computeTiling(
        eff_arch, p.m, p.k, p.n, p.a_stored_density, p.b_stored_density);
    if (p.accum == AccumStyle::OuterProduct) {
        // Outer product: the resident tile is the 32-bit output tile,
        // not an A tile; operands re-stream once per output tile.
        const GlbPartition part;
        const double psum_words_per_row = 2.0 * static_cast<double>(p.n);
        std::int64_t m_tile = static_cast<std::int64_t>(
            static_cast<double>(eff_arch.glbDataWords()) *
            (part.a_share + part.out_share) / psum_words_per_row);
        m_tile = std::clamp<std::int64_t>(m_tile, 1, p.m);
        tiling.m_tile = m_tile;
        tiling.m_passes = (p.m + m_tile - 1) / m_tile;
        // A values enjoy full reuse across their output tile's columns
        // (the outer-product win), so A is read once overall.
        tiling.n_passes = 1;
    }

    const double a_words = static_cast<double>(p.m) *
                           static_cast<double>(p.k) *
                           p.a_stored_density;
    const double b_words = static_cast<double>(p.k) *
                           static_cast<double>(p.n) *
                           p.b_stored_density;
    const double out_words =
        static_cast<double>(p.m) * static_cast<double>(p.n);

    // --- DRAM ---
    const double dram_words =
        a_words + b_words * static_cast<double>(tiling.m_passes) +
        out_words;
    r.addEnergy("dram", dram_words * lib.dramAccessPj());
    // Metadata travels with its operand from DRAM too.
    const double a_meta_word_equiv =
        a_words * p.a_meta_bits_per_word / lib.tech().word_bits;
    const double b_meta_word_equiv =
        b_words * p.b_meta_bits_per_word / lib.tech().word_bits;
    r.addEnergy("dram",
                (a_meta_word_equiv +
                 b_meta_word_equiv * static_cast<double>(tiling.m_passes)) *
                    lib.dramAccessPj());

    // --- GLB data traffic ---
    const double glb_pj = lib.sramAccessPj(eff_arch.glb_data_kb);
    // A: written once per DRAM load, re-read to the PE registers once
    // per B column tile (N-tile pass).
    const double glb_a_writes = a_words;
    const double glb_a_reads =
        a_words * static_cast<double>(tiling.n_passes);
    // B: written on every DRAM pass, read by compute: spatial_k words
    // per step (times the fetch fraction for compressed streams).
    const double glb_b_writes =
        b_words * static_cast<double>(tiling.m_passes);
    const double glb_b_reads = steps * spatial_k * p.b_fetch_fraction;
    const double glb_out_writes = out_words;
    // Small-RF designs stream A operands from the GLB every step
    // instead of holding them in registers.
    const double glb_a_stream =
        p.a_stream_per_step ? steps * spatial_m : 0.0;
    r.addEnergy("glb", (glb_a_writes + glb_a_reads + glb_b_writes +
                        glb_b_reads + glb_out_writes + glb_a_stream) *
                           glb_pj);

    // --- GLB metadata traffic ---
    if (eff_arch.glb_meta_kb > 0.0 &&
        (p.a_meta_bits_per_word > 0.0 || p.b_meta_bits_per_word > 0.0)) {
        const double a_meta_accesses = glb_a_writes + glb_a_reads;
        const double b_meta_accesses = glb_b_writes + glb_b_reads;
        const double meta_pj_a = lib.metadataAccessPj(
            eff_arch.glb_meta_kb,
            static_cast<int>(std::ceil(p.a_meta_bits_per_word)));
        const double meta_pj_b = lib.metadataAccessPj(
            eff_arch.glb_meta_kb,
            static_cast<int>(std::ceil(p.b_meta_bits_per_word)));
        double meta_pj = 0.0;
        if (p.a_meta_bits_per_word > 0.0)
            meta_pj += a_meta_accesses * meta_pj_a;
        if (p.b_meta_bits_per_word > 0.0)
            meta_pj += b_meta_accesses * meta_pj_b;
        r.addEnergy("metadata", meta_pj);
    }

    // --- RF partial sums ---
    const double rf_pj = lib.rfAccessPj(arch.rf_kb);
    if (p.accum == AccumStyle::SpatialReduce) {
        // One read+write per step per output row after the spatial
        // K-reduction, plus a final drain per output.
        const double psum_accesses =
            2.0 * steps * spatial_m * p.psum_fraction + out_words;
        r.addEnergy("rf", psum_accesses * rf_pj);
    } else {
        // Outer product: every effectual MAC's 32-bit partial sum is
        // scattered to the accumulation storage individually — DSTC's
        // dominant sparsity tax (Sec 2.2.1, Fig 16(a)).
        const double accum_pj =
            p.accum_access_pj >= 0.0 ? p.accum_access_pj : rf_pj;
        const double accum_accesses =
            2.0 * dense_macs * p.effectual_mac_fraction;
        r.addEnergy("rf", accum_accesses * accum_pj + out_words * rf_pj);
    }

    // --- MACs ---
    const double effectual = dense_macs * p.effectual_mac_fraction;
    const double lane_slots = steps * n_macs;
    const double occupied_ineffectual =
        std::max(0.0, lane_slots - effectual);
    r.addEnergy("mac", effectual * lib.macComputePj());
    r.addEnergy("mac",
                occupied_ineffectual * (p.gate_ineffectual
                                            ? lib.macGatedPj()
                                            : lib.macComputePj()));

    // --- operand registers ---
    // Each lane reads its stationary A operand and latches a B operand
    // every occupied step; A loads also write the registers.
    const double reg_accesses = 2.0 * lane_slots + glb_a_reads;
    r.addEnergy("reg", reg_accesses * lib.regAccessPj());

    // --- SAFs ---
    double saf_pj = p.mux_pj_per_step * steps;
    saf_pj += p.saf_pj_per_b_fetch * glb_b_reads;
    if (saf_pj > 0.0)
        r.addEnergy("saf", saf_pj);

    return r;
}

} // namespace highlight
