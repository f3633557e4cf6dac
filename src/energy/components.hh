/**
 * @file
 * Accelergy-style component library (paper Sec 7.1.3).
 *
 * Translates (component, action) pairs into pJ, and component instances
 * into um^2, from the 65nm TechnologyParams table. Storage access
 * energies scale with the square root of capacity relative to each
 * family's reference point — the usual wordline/bitline scaling CACTI
 * exhibits.
 */

#ifndef HIGHLIGHT_ENERGY_COMPONENTS_HH
#define HIGHLIGHT_ENERGY_COMPONENTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "energy/tech.hh"

namespace highlight
{

/**
 * Energy/area calculator for all modeled components.
 */
class ComponentLibrary
{
  public:
    const TechnologyParams &tech() const { return tech_; }

    // --- per-action energies (pJ) ---

    /** Effectual 16-bit MAC. */
    double macComputePj() const { return tech_.mac_compute_pj; }

    /** Clock-gated MAC cycle (the gating SAF's residual cost). */
    double macGatedPj() const { return tech_.mac_gated_pj; }

    /** Pipeline/operand register access. */
    double regAccessPj() const { return tech_.reg_access_pj; }

    /**
     * Register-file access for a RF of the given capacity. Fatal
     * unless the capacity is positive (NaN is not).
     */
    double rfAccessPj(double capacity_kb) const;

    /** SRAM (GLB-class) access; the capacity is checked likewise. */
    double sramAccessPj(double capacity_kb) const;

    /** DRAM access per 16-bit word. */
    double dramAccessPj() const { return tech_.dram_access_pj; }

    /**
     * Metadata access through a storage of the given capacity, prorated
     * by field width: reading an f-bit field costs f/word_bits of a
     * word access.
     */
    double metadataAccessPj(double capacity_kb, int field_bits) const;

    /** One selection through an h-to-1 mux ((h-1) 2:1 muxes switch). */
    double muxSelectPj(int h) const;

    // --- areas (um^2) ---

    double macAreaUm2() const { return tech_.mac_area_um2; }
    double sramAreaUm2(double capacity_kb) const;
    double rfAreaUm2(double capacity_kb) const;
    double regArrayAreaUm2(std::int64_t bits) const;
    double muxAreaUm2(int h) const;

  private:
    TechnologyParams tech_;
};

/**
 * One line of an area or energy breakdown: a component name and its
 * contribution. Benches print vectors of these (Fig 16).
 */
struct BreakdownEntry
{
    std::string name;
    double value = 0.0;
};

/** Sum of all entries. */
double breakdownTotal(const std::vector<BreakdownEntry> &entries);

/** Share of `name` in the breakdown total (0 when absent). */
double breakdownShare(const std::vector<BreakdownEntry> &entries,
                      const std::string &name);

} // namespace highlight

#endif // HIGHLIGHT_ENERGY_COMPONENTS_HH
