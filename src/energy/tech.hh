/**
 * @file
 * Technology parameters for the 65nm component models.
 *
 * The paper characterizes components with synthesized 65nm RTL, an SRAM
 * compiler, CACTI, and proprietary LPDDR4 data (Sec 7.1.3). We
 * substitute a table of per-action energies anchored to the publicly
 * documented 65nm ratios from the authors' group (Eyeriss / Accelergy:
 * a 16-bit MAC ~ 1x, small RF access ~ 1x, a few-hundred-KB SRAM ~ 6x,
 * DRAM ~ 200x per 16-bit word). Every design is evaluated with the same
 * table, so relative energy — which is what all the figures report — is
 * preserved. See FIDELITY.md, Substitutions.
 */

#ifndef HIGHLIGHT_ENERGY_TECH_HH
#define HIGHLIGHT_ENERGY_TECH_HH

namespace highlight
{

/**
 * Process/technology constants used by the component library. All
 * energies in pJ, all areas in um^2, clock in MHz.
 */
struct TechnologyParams
{
    int node_nm = 65;
    double clock_mhz = 1000.0;
    int word_bits = 16;

    // --- datapath energies (pJ per action) ---
    double mac_compute_pj = 1.0;   ///< 16-bit multiply-accumulate.
    double mac_gated_pj = 0.05;    ///< Clock-gated idle MAC cycle.
    double reg_access_pj = 0.08;   ///< Pipeline/operand register.
    double mux2_select_pj = 0.014; ///< One 16-bit 2-to-1 mux switch.

    // --- storage energies (pJ per 16-bit word access) ---
    double rf_base_pj = 1.0;     ///< 2KB register file reference point.
    double rf_base_kb = 2.0;
    double sram_base_pj = 6.0;   ///< 256KB GLB reference point.
    double sram_base_kb = 256.0;
    double dram_access_pj = 200.0;

    // --- areas (um^2) ---
    double mac_area_um2 = 1500.0;       ///< 16-bit MAC.
    double sram_area_um2_per_bit = 1.0; ///< Large SRAM arrays.
    double rf_area_um2_per_bit = 1.5;   ///< Small RF arrays.
    double reg_area_um2_per_bit = 2.0;  ///< Flip-flop based registers.
    double mux2_area_um2 = 26.0;        ///< 16-bit 2-to-1 mux.
};

} // namespace highlight

#endif // HIGHLIGHT_ENERGY_TECH_HH
