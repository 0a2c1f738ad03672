//===- tests/ChartTest.cpp - Chart rendering tests ------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "chart/Charts.h"
#include "analysis/Preprocess.h"
#include <gtest/gtest.h>

using namespace dmb;

namespace {

SubtaskResult sampleResult() {
  SubtaskResult R;
  R.Operation = "MakeFiles";
  R.FileSystem = "nfs";
  R.NumNodes = 2;
  R.PerNode = 2;
  R.Interval = milliseconds(100);
  for (unsigned I = 0; I < 4; ++I) {
    ProcessTrace P;
    P.Ordinal = I;
    P.Hostname = "node" + std::to_string(I / 2);
    std::vector<uint64_t> Buckets = {100, 110, 90 + I * 5, 100};
    P.OpsPerInterval = IntervalCounts::fromDense(Buckets);
    for (uint64_t B : Buckets)
      P.TotalOps += B;
    P.FinishOffset = milliseconds(400);
    R.Processes.push_back(std::move(P));
  }
  return R;
}

TEST(Chart, AsciiChartContainsAxesAndGlyphs) {
  ChartSeries S1{"series-a", {{0, 0}, {1, 10}, {2, 20}}};
  ChartSeries S2{"series-b", {{0, 20}, {1, 10}, {2, 0}}};
  ChartOptions Opt;
  Opt.Title = "test chart";
  std::string Out = renderAsciiChart({S1, S2}, Opt);
  EXPECT_NE(std::string::npos, Out.find("test chart"));
  EXPECT_NE(std::string::npos, Out.find("series-a"));
  EXPECT_NE(std::string::npos, Out.find("series-b"));
  EXPECT_NE(std::string::npos, Out.find('*'));
  EXPECT_NE(std::string::npos, Out.find('+'));
}

TEST(Chart, EmptySeriesHandled) {
  ChartOptions Opt;
  Opt.Title = "empty";
  std::string Out = renderAsciiChart({}, Opt);
  EXPECT_NE(std::string::npos, Out.find("no data"));
}

TEST(Chart, SeriesTsvAlignsByX) {
  ChartSeries S1{"a", {{1, 10}, {2, 20}}};
  ChartSeries S2{"b", {{2, 200}, {3, 300}}};
  std::string Tsv = seriesTsv({S1, S2}, "n");
  EXPECT_NE(std::string::npos, Tsv.find("n\ta\tb"));
  EXPECT_NE(std::string::npos, Tsv.find("1\t10\t"));
  EXPECT_NE(std::string::npos, Tsv.find("2\t20\t200"));
  EXPECT_NE(std::string::npos, Tsv.find("3\t\t300"));
}

TEST(Chart, TimeChartHasThreePanels) {
  std::string Out = renderTimeChart(sampleResult());
  EXPECT_NE(std::string::npos, Out.find("operations completed"));
  EXPECT_NE(std::string::npos, Out.find("per-process COV"));
  EXPECT_NE(std::string::npos, Out.find("total throughput"));
  EXPECT_NE(std::string::npos, Out.find("MakeFiles 2 nodes/2 ppn on nfs"));
}

TEST(Chart, TimeChartTsvRowsMatchIntervals) {
  SubtaskResult R = sampleResult();
  std::string Tsv = timeChartTsv(R);
  // Header + one row per interval.
  EXPECT_EQ(1 + static_cast<long>(R.numIntervals()),
            std::count(Tsv.begin(), Tsv.end(), '\n'));
}

TEST(Chart, ScalingSeriesUsesStonewallAverage) {
  SubtaskResult R = sampleResult();
  ScalingInput In{"nfs", {&R}};
  std::vector<ChartSeries> Series = scalingSeries({In}, /*XIsNodes=*/true);
  ASSERT_EQ(1u, Series.size());
  ASSERT_EQ(1u, Series[0].Points.size());
  EXPECT_DOUBLE_EQ(2.0, Series[0].Points[0].first);
  EXPECT_DOUBLE_EQ(stonewallAverage(R), Series[0].Points[0].second);
  std::vector<ChartSeries> ByProc = scalingSeries({In}, false);
  EXPECT_DOUBLE_EQ(4.0, ByProc[0].Points[0].first);
}

TEST(Chart, ScalingChartsRender) {
  SubtaskResult R = sampleResult();
  ScalingInput In{"nfs MakeFiles", {&R}};
  EXPECT_NE(std::string::npos,
            renderProcessScalingChart({In}, "proc chart")
                .find("number of processes"));
  EXPECT_NE(std::string::npos,
            renderNodeScalingChart({In}, "node chart")
                .find("number of nodes"));
}

} // namespace
