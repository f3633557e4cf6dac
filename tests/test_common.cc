/**
 * @file
 * Unit tests for the common utilities: error handling, RNG,
 * statistics, and the table emitter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace highlight
{
namespace
{

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("user error"), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Logging, FatalMessageIsPreserved)
{
    try {
        fatal("specific detail");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("specific detail"),
                  std::string::npos);
    }
}

TEST(Logging, MsgOfConcatenatesStreamably)
{
    EXPECT_EQ(msgOf("H=", 4, " G=", 2), "H=4 G=2");
}

TEST(Logging, FormatG6MatchesDefaultStreamOutput)
{
    // One value per "%g" branch: trailing-zero trim, 6-digit rounding,
    // integers, a half that rounds to even, exponent form above and
    // below the fixed range, a round-up that carries into the exponent.
    for (double v : {0.1, 1.0 / 3.0, 2.5, 12.0, 123456.5, 1234567.0, 1e-5,
                     6.02e23, 0.0, -0.75, 1e-4, 999999.5, 0.48036}) {
        std::ostringstream oss;
        oss << v;
        EXPECT_EQ(formatG6(v), oss.str()) << "value " << v;
    }
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16 && !any_diff; ++i)
        any_diff = a.uniform() != b.uniform();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange)
{
    Rng rng;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(3.0, 7.0);
        EXPECT_GE(v, 3.0);
        EXPECT_LT(v, 7.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng;
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all values hit over 1000 draws
}

TEST(Rng, SampleIndicesAreDistinctAndInRange)
{
    Rng rng;
    const auto sample = rng.sampleIndices(100, 30);
    EXPECT_EQ(sample.size(), 30u);
    std::set<std::size_t> uniq(sample.begin(), sample.end());
    EXPECT_EQ(uniq.size(), 30u);
    for (std::size_t idx : sample)
        EXPECT_LT(idx, 100u);
}

TEST(Rng, SampleIndicesFullSet)
{
    Rng rng;
    const auto sample = rng.sampleIndices(10, 10);
    std::set<std::size_t> uniq(sample.begin(), sample.end());
    EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, SampleIndicesOverdrawPanics)
{
    Rng rng;
    EXPECT_THROW(rng.sampleIndices(5, 6), PanicError);
}

TEST(Stats, GeomeanOfEqualValues)
{
    EXPECT_DOUBLE_EQ(geomean({3.0, 3.0, 3.0}), 3.0);
}

TEST(Stats, GeomeanKnownValue)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 8.0, 4.0}), 4.0, 1e-12);
}

TEST(Stats, GeomeanRejectsEmpty)
{
    EXPECT_THROW(geomean({}), FatalError);
}

TEST(Stats, GeomeanRejectsNonPositive)
{
    EXPECT_THROW(geomean({1.0, 0.0}), FatalError);
    EXPECT_THROW(geomean({1.0, -2.0}), FatalError);
}

TEST(Stats, MeanMinMax)
{
    const std::vector<double> v{2.0, 4.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(v), 5.0);
    EXPECT_DOUBLE_EQ(minOf(v), 2.0);
    EXPECT_DOUBLE_EQ(maxOf(v), 9.0);
}

TEST(Stats, BinomialPmfSumsToOne)
{
    double total = 0.0;
    for (int k = 0; k <= 20; ++k)
        total += binomialPmf(20, k, 0.3);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Stats, BinomialPmfDegenerateP)
{
    EXPECT_DOUBLE_EQ(binomialPmf(10, 0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(binomialPmf(10, 3, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(binomialPmf(10, 10, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(binomialPmf(10, 9, 1.0), 0.0);
}

TEST(Stats, BinomialPmfOutOfRangeIsZero)
{
    EXPECT_DOUBLE_EQ(binomialPmf(5, -1, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(binomialPmf(5, 6, 0.5), 0.0);
}

TEST(Stats, BinomialPmfsMeanIsNp)
{
    std::vector<double> pmf;
    binomialPmfs(100, 0.25, pmf);
    ASSERT_EQ(pmf.size(), 101u);
    double mean = 0.0;
    for (int k = 0; k <= 100; ++k)
        mean += pmf[k] * static_cast<double>(k);
    EXPECT_NEAR(mean, 25.0, 1e-9);
}

TEST(Stats, BinomialPmfsSumToOne)
{
    std::vector<double> pmf;
    binomialPmfs(64, 0.7, pmf);
    double total = 0.0;
    for (double v : pmf)
        total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Stats, BinomialPmfsRejectsNegativeN)
{
    std::vector<double> pmf;
    EXPECT_THROW(binomialPmfs(-1, 0.5, pmf), PanicError);
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

TEST(Stats, BinomialPmfsMatchBinomialPmfBitForBit)
{
    // Every (n, k) with n in [0, 300], on a 1001-point p grid (which
    // includes the degenerate p = 0 and p = 1) plus two p next to the
    // ends: the hoisted logs and shared lgamma values must reproduce
    // binomialPmf's bits, including in builds that fuse multiply-adds.
    std::vector<double> ps;
    for (int i = 0; i <= 1000; ++i)
        ps.push_back(i / 1000.0);
    ps.push_back(1e-9);
    ps.push_back(1.0 - 1e-12);
    std::vector<double> pmf;
    long long checked = 0, mismatches = 0;
    for (double p : ps) {
        for (int n = 0; n <= 300; ++n) {
            binomialPmfs(n, p, pmf);
            ASSERT_EQ(pmf.size(), static_cast<std::size_t>(n) + 1);
            for (int k = 0; k <= n; ++k, ++checked) {
                const double want = binomialPmf(n, k, p);
                if (bitsOf(pmf[k]) == bitsOf(want))
                    continue;
                if (++mismatches <= 5)
                    ADD_FAILURE() << "n=" << n << " k=" << k << " p="
                                  << p << ": " << pmf[k] << " vs "
                                  << want;
            }
        }
    }
    EXPECT_EQ(mismatches, 0) << "of " << checked << " values";
    EXPECT_EQ(checked, 1003LL * 301 * 302 / 2);
}

TEST(Stats, BinomialPmfsMatchAsTheLgammaTableGrows)
{
    // binomialPmfs reads lgamma(j+1) from a per-thread table that grows
    // on demand. On a fresh thread the table starts empty: n falls from
    // 40 (reads of a prefix), then rises one step at a time past 300
    // and jumps to 1000 (each call grows it), and must match
    // binomialPmf bit for bit throughout.
    std::vector<int> ns;
    for (int n = 40; n >= 0; --n)
        ns.push_back(n);
    for (int n = 1; n <= 320; ++n)
        ns.push_back(n);
    ns.push_back(1000);
    ns.push_back(7);
    long long checked = 0, mismatches = 0;
    std::thread fresh([&] {
        std::vector<double> pmf;
        for (int n : ns) {
            for (double p : {0.013, 0.5, 0.77}) {
                binomialPmfs(n, p, pmf);
                for (int k = 0; k <= n; ++k, ++checked) {
                    if (bitsOf(pmf[k]) != bitsOf(binomialPmf(n, k, p)))
                        ++mismatches;
                }
            }
        }
    });
    fresh.join();
    EXPECT_EQ(mismatches, 0) << "of " << checked << " values";
    EXPECT_GT(checked, 0);
}

TEST(Env, PositiveIntFromEnvAcceptsOnlyCleanPositiveDecimals)
{
    const char *knob = "HIGHLIGHT_TEST_ENV_KNOB";
    ASSERT_EQ(setenv(knob, "1", 1), 0);
    EXPECT_EQ(positiveIntFromEnv(knob, 100, 7), 1);
    ASSERT_EQ(setenv(knob, "100", 1), 0);
    EXPECT_EQ(positiveIntFromEnv(knob, 100, 7), 100);
    // Garbage that naive parsing mis-reads: trailing junk silently
    // truncates under atoi, "-1" wraps under strtoull, "1e6" parses
    // as 1, and whitespace/sign prefixes sneak through strtol. "101"
    // is above the maximum.
    for (const char *bad : {"4x", "-1", "1e6", "+4", " 4", "4 ", "", "0",
                            "101", "99999999999999999999"}) {
        ASSERT_EQ(setenv(knob, bad, 1), 0);
        EXPECT_THROW(positiveIntFromEnv(knob, 100, 7), FatalError)
            << "'" << bad << "'";
    }
    ASSERT_EQ(unsetenv(knob), 0);
}

TEST(Env, PositiveIntFromEnvRejectsGarbage)
{
    ASSERT_EQ(setenv("HIGHLIGHT_TEST_ENV_KNOB", "4x", 1), 0);
    try {
        positiveIntFromEnv("HIGHLIGHT_TEST_ENV_KNOB", 100, 7);
        FAIL() << "a garbage value did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("HIGHLIGHT_TEST_ENV_KNOB=4x"),
                  std::string::npos)
            << e.what();
    }
    ASSERT_EQ(setenv("HIGHLIGHT_TEST_ENV_KNOB", "42", 1), 0);
    EXPECT_EQ(positiveIntFromEnv("HIGHLIGHT_TEST_ENV_KNOB", 100, 7),
              42);
    ASSERT_EQ(unsetenv("HIGHLIGHT_TEST_ENV_KNOB"), 0);
    EXPECT_EQ(positiveIntFromEnv("HIGHLIGHT_TEST_ENV_KNOB", 100, 7), 7);
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    TextTable t("demo");
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow)
{
    TextTable t;
    t.setHeader({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(Table, CsvOutput)
{
    TextTable t;
    t.setHeader({"x", "y"});
    t.addRow({"1", "2"});
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_EQ(oss.str(), "x,y\n1,2\n");
}

TEST(Table, FmtPrecision)
{
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::fmt(2.0, 0), "2");
}

} // namespace
} // namespace highlight
