#include "fingerprint.hh"

namespace perfbench
{

namespace
{

void
addBreakdown(Fingerprint &f,
             const std::vector<highlight::BreakdownEntry> &entries)
{
    f.pod(static_cast<std::uint64_t>(entries.size()));
    for (const auto &e : entries)
        f.str(e.name).pod(e.value);
}

} // namespace

Fingerprint &
Fingerprint::add(const highlight::EvalResult &r)
{
    str(r.design).str(r.workload).pod(r.supported).str(r.note);
    pod(r.cycles).pod(r.clock_mhz);
    addBreakdown(*this, r.energy_pj);
    addBreakdown(*this, r.area_um2);
    return *this;
}

Fingerprint &
Fingerprint::add(const highlight::DnnEvalResult &r)
{
    str(r.design).pod(r.accuracy_loss).pod(r.total_energy_pj);
    pod(r.total_cycles).pod(r.supported).str(r.note);
    pod(static_cast<std::uint64_t>(r.per_layer.size()));
    for (const auto &layer : r.per_layer)
        add(layer);
    return *this;
}

Fingerprint &
Fingerprint::add(const highlight::SimResult &r)
{
    const auto &data = r.output.data();
    pod(static_cast<std::uint64_t>(data.size()));
    bytes_.append(reinterpret_cast<const char *>(data.data()),
                  data.size() * sizeof(float));
    const highlight::SimStats &s = r.stats;
    pod(s.cycles).pod(s.a_words_loaded).pod(s.psum_updates);
    pod(s.dummy_blocks);
    pod(s.glb_b.row_fetches).pod(s.glb_b.words_read);
    pod(s.vfmu.shifts).pod(s.vfmu.skipped_fetches).pod(s.vfmu.words_out);
    pod(s.pe.mac_ops).pod(s.pe.gated_macs).pod(s.pe.mux_selects);
    return *this;
}

Fingerprint &
Fingerprint::add(const std::vector<bool> &mask)
{
    pod(static_cast<std::uint64_t>(mask.size()));
    for (const bool b : mask)
        pod(b);
    return *this;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace perfbench
