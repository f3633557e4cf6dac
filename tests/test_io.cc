/**
 * @file
 * The io/ layer: JSON string quoting, and the bench summary writer
 * emits the legacy highlight-bench-v1 JSON byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "io/bench_io.hh"
#include "io/json.hh"

namespace highlight
{
namespace
{

TEST(Json, QuoteEscapesQuotesAndBackslashes)
{
    EXPECT_EQ(jsonQuote("HL 2:4 \"half\""), "\"HL 2:4 \\\"half\\\"\"");
    EXPECT_EQ(jsonQuote("De\\iT"), "\"De\\\\iT\"");
    EXPECT_EQ(jsonQuote(""), "\"\"");
}

TEST(BenchIo, TextFormatIsTheLegacySchema)
{
    const std::string path = ::testing::TempDir() + "bench_schema.json";
    ASSERT_TRUE(writeBenchJson(path, "bench_kernels",
                               {{"BM_PeStep", 4.0, 1e9}}));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(),
              "{\n"
              "  \"schema\": \"highlight-bench-v1\",\n"
              "  \"suite\": \"bench_kernels\",\n"
              "  \"benchmarks\": [\n"
              "    {\"name\": \"BM_PeStep\", \"ns_per_op\": 4, "
              "\"items_per_second\": 1000000000}\n"
              "  ]\n}\n");
    std::remove(path.c_str());
}

} // namespace
} // namespace highlight
