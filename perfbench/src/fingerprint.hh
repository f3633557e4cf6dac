/**
 * @file
 * Bit-exact result fingerprints.
 *
 * Every field of a result — strings, flags, and the raw bit pattern of
 * every floating-point value and counter — is appended to a byte
 * string. Two results are bit-identical iff their fingerprints are
 * equal; the FNV-1a hash of a fingerprint is the golden digest.
 */

#ifndef PERFBENCH_FINGERPRINT_HH
#define PERFBENCH_FINGERPRINT_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/evaluator.hh"
#include "microsim/simulator.hh"

namespace perfbench
{

class Fingerprint
{
  public:
    template <typename T>
    Fingerprint &
    pod(const T &v)
    {
        const char *p = reinterpret_cast<const char *>(&v);
        bytes_.append(p, sizeof(T));
        return *this;
    }

    Fingerprint &
    str(const std::string &s)
    {
        pod(static_cast<std::uint64_t>(s.size()));
        bytes_.append(s);
        return *this;
    }

    Fingerprint &add(const highlight::EvalResult &r);
    Fingerprint &add(const highlight::DnnEvalResult &r);
    Fingerprint &add(const highlight::SimResult &r);
    Fingerprint &add(const std::vector<bool> &mask);

    const std::string &bytes() const { return bytes_; }

  private:
    std::string bytes_;
};

/** 64-bit FNV-1a over a byte string. */
std::uint64_t fnv1a(const std::string &bytes);

/** Flip the lowest mantissa bit of `v` (the smallest possible corruption). */
inline void
flipLowBit(double &v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= 1u;
    std::memcpy(&v, &bits, sizeof bits);
}

inline void
flipLowBit(float &v)
{
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= 1u;
    std::memcpy(&v, &bits, sizeof bits);
}

} // namespace perfbench

#endif // PERFBENCH_FINGERPRINT_HH
