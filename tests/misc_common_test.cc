#include <gtest/gtest.h>

#include "test_paths.h"
#include "vsim/common/math_util.h"
#include "vsim/common/stopwatch.h"
#include "vsim/common/table_printer.h"
#include "vsim/distance/lp.h"
#include "vsim/index/io_stats.h"

namespace vsim {
namespace {

TEST(MathUtilTest, AlmostEqual) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(AlmostEqual(1.0, 1.01));
  EXPECT_TRUE(AlmostEqual(1e9, 1e9 * (1 + 1e-10)));
  EXPECT_TRUE(AlmostEqual(0.0, 1e-12));
}

TEST(MathUtilTest, ClampAndCeilDiv) {
  EXPECT_EQ(Clamp(5, 0, 3), 3);
  EXPECT_EQ(Clamp(-1, 0, 3), 0);
  EXPECT_EQ(Clamp(2, 0, 3), 2);
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(0, 5), 0);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(w.ElapsedSeconds(), 0.0);
  EXPECT_NEAR(w.ElapsedMillis(), w.ElapsedSeconds() * 1e3, 1.0);
  w.Restart();
  EXPECT_LT(w.ElapsedSeconds(), 0.1);
}

TEST(IoStatsTest, AccumulatesAndSimulates) {
  IoStats stats;
  stats.AddPageAccesses(10);
  stats.AddBytesRead(1000);
  // Paper constants: 8 ms per page, 200 ns per byte.
  EXPECT_NEAR(stats.SimulatedSeconds(), 10 * 0.008 + 1000 * 200e-9, 1e-12);
  IoStats more;
  more.AddPageAccesses(5);
  stats += more;
  EXPECT_EQ(stats.page_accesses(), 15u);
  stats.Reset();
  EXPECT_EQ(stats.page_accesses(), 0u);
  EXPECT_EQ(stats.bytes_read(), 0u);
}

TEST(IoStatsTest, CustomCostParams) {
  IoStats stats;
  stats.AddPageAccesses(2);
  IoCostParams params;
  params.seconds_per_page_access = 1.0;
  params.seconds_per_byte = 0.0;
  EXPECT_DOUBLE_EQ(stats.SimulatedSeconds(params), 2.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"model", "time"});
  t.AddRow({"scan", "1.5"});
  t.AddRow({"filter+refine", "0.3"});
  // Render to a temp file and inspect.
  const std::string path = TestTempPath("table.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  t.Print(f);
  std::fclose(f);
  f = std::fopen(path.c_str(), "r");
  char buf[4096];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = 0;
  const std::string out = buf;
  EXPECT_NE(out.find("| model"), std::string::npos);
  EXPECT_NE(out.find("filter+refine"), std::string::npos);
  EXPECT_NE(out.find("+-"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  const std::string path = TestTempPath("table.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  t.PrintCsv(f);
  std::fclose(f);
  f = std::fopen(path.c_str(), "r");
  char buf[256];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = 0;
  EXPECT_STREQ(buf, "a,b\n1,2\n");
  std::remove(path.c_str());
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(10.0, 0), "10");
  EXPECT_EQ(TablePrinter::Num(0.125, 3), "0.125");
}

TEST(LpDistanceTest, BasicIdentities) {
  const FeatureVector a = {1, 2, 3};
  const FeatureVector b = {4, 6, 3};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(ManhattanDistance(a, b), 7.0);
  EXPECT_DOUBLE_EQ(ChebyshevDistance(a, b), 4.0);
  EXPECT_DOUBLE_EQ(MinkowskiDistance(a, b, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(MinkowskiDistance(a, b, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(EuclideanNorm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredEuclideanNorm({3, 4}), 25.0);
}

}  // namespace
}  // namespace vsim
