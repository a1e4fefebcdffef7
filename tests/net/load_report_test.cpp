#include "net/load_report.h"

#include <gtest/gtest.h>

#include <string>

namespace mapit {
namespace {

TEST(LoadReport, EmptyReportHasEmptySummary) {
  LoadReport report;
  EXPECT_EQ(report.skipped(), 0u);
  EXPECT_EQ(report.loaded(), 0u);
  EXPECT_TRUE(report.offenders().empty());
  EXPECT_EQ(report.summary("traces"), "");
}

TEST(LoadReport, RecordsOffendersInOrder) {
  LoadReport report;
  report.record(3, 42, "bad monitor");
  report.record(7, 190, "bad destination");
  report.add_loaded(5);
  ASSERT_EQ(report.offenders().size(), 2u);
  EXPECT_EQ(report.offenders()[0].line_no, 3u);
  EXPECT_EQ(report.offenders()[0].byte_offset, 42u);
  EXPECT_EQ(report.offenders()[0].error, "bad monitor");
  EXPECT_EQ(report.offenders()[1].line_no, 7u);
  EXPECT_EQ(report.offenders()[1].byte_offset, 190u);
  EXPECT_EQ(report.summary("traces"),
            "traces: skipped 2 of 7 lines as malformed\n"
            "  line 3 (byte 42): bad monitor\n"
            "  line 7 (byte 190): bad destination\n");
}

TEST(LoadReport, DetailCapsAtKMaxDetailedButKeepsCounting) {
  LoadReport report;
  for (std::size_t i = 1; i <= LoadReport::kMaxDetailed + 5; ++i) {
    report.record(i, i * 10, "err " + std::to_string(i));
  }
  EXPECT_EQ(report.skipped(), LoadReport::kMaxDetailed + 5);
  EXPECT_EQ(report.offenders().size(), LoadReport::kMaxDetailed);
  const std::string summary = report.summary("rib");
  EXPECT_NE(summary.find("... and 5 more"), std::string::npos);
  // Only the first kMaxDetailed get lines.
  EXPECT_NE(summary.find("line 1 (byte 10): err 1"), std::string::npos);
  EXPECT_EQ(summary.find("line 11:"), std::string::npos);
}

TEST(LoadReport, AddSkippedCountsPastTheDetailedOffenders) {
  LoadReport report;
  for (std::size_t i = 1; i <= LoadReport::kMaxDetailed; ++i) {
    report.record(i, i * 10, "err " + std::to_string(i));
  }
  report.add_skipped(3);
  report.add_loaded(7);
  EXPECT_EQ(report.skipped(), LoadReport::kMaxDetailed + 3);
  EXPECT_EQ(report.offenders().size(), LoadReport::kMaxDetailed);
  const std::string summary = report.summary("traces");
  EXPECT_NE(summary.find("skipped 13 of 20 lines"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("... and 3 more"), std::string::npos) << summary;
}

}  // namespace
}  // namespace mapit
