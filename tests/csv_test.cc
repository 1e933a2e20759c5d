#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "tsdata/csv.h"

namespace ipool {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/ipool_csv_" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(CsvTest, TimeSeriesRoundTrips) {
  TimeSeries original(120.0, 30.0, {1.0, 2.5, 0.0, 7.25});
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(SaveTimeSeriesCsv(original, path).ok());
  auto loaded = LoadTimeSeriesCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded->start(), 120.0);
  EXPECT_DOUBLE_EQ(loaded->interval(), 30.0);
  ASSERT_EQ(loaded->size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(loaded->value(i), original.value(i), 1e-9);
  }
  std::remove(path.c_str());
}

TEST_F(CsvTest, ScheduleRoundTrips) {
  StoredSchedule original;
  original.start_time = 3600.0;
  original.interval_seconds = 30.0;
  original.pool_size_per_bin = {3, 5, 5, 0, 12};
  const std::string path = TempPath("schedule.csv");
  ASSERT_TRUE(SaveScheduleCsv(original, path).ok());
  auto loaded = LoadScheduleCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded->start_time, 3600.0);
  EXPECT_DOUBLE_EQ(loaded->interval_seconds, 30.0);
  EXPECT_EQ(loaded->pool_size_per_bin, original.pool_size_per_bin);
  std::remove(path.c_str());
}

TEST_F(CsvTest, MissingFileIsNotFound) {
  auto result = LoadTimeSeriesCsv("/nonexistent/path/demand.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(CsvTest, RejectsWrongHeader) {
  const std::string path = TempPath("badheader.csv");
  WriteFile(path, "t,v\n0,1\n30,2\n");
  EXPECT_FALSE(LoadTimeSeriesCsv(path).ok());
  std::remove(path.c_str());
}

TEST_F(CsvTest, RejectsMalformedRows) {
  const std::string path = TempPath("malformed.csv");
  WriteFile(path, "time_seconds,value\n0,1\nthirty,2\n");
  EXPECT_FALSE(LoadTimeSeriesCsv(path).ok());
  WriteFile(path, "time_seconds,value\n0,1\n30\n");
  EXPECT_FALSE(LoadTimeSeriesCsv(path).ok());
  WriteFile(path, "time_seconds,value\n");
  EXPECT_FALSE(LoadTimeSeriesCsv(path).ok());
  // Every field must parse in full to a finite number; the error names the
  // file and the line.
  for (const char* row : {"30,nan", "inf,2", "30,12abc", "30,1e999"}) {
    WriteFile(path, std::string("time_seconds,value\n0,1\n") + row + "\n");
    auto result = LoadTimeSeriesCsv(path);
    ASSERT_FALSE(result.ok()) << row;
    EXPECT_NE(result.status().message().find(path + ":3:"), std::string::npos)
        << result.status().message();
  }
  std::remove(path.c_str());
}

TEST_F(CsvTest, RejectsNonUniformSpacing) {
  const std::string path = TempPath("gaps.csv");
  WriteFile(path, "time_seconds,value\n0,1\n30,2\n90,3\n");
  auto result = LoadTimeSeriesCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(CsvTest, RejectsDecreasingTimes) {
  const std::string path = TempPath("decreasing.csv");
  WriteFile(path, "time_seconds,value\n60,1\n30,2\n");
  EXPECT_FALSE(LoadTimeSeriesCsv(path).ok());
  std::remove(path.c_str());
}

TEST_F(CsvTest, RejectsNegativePoolSizes) {
  const std::string path = TempPath("negative.csv");
  WriteFile(path, "time_seconds,pool_size\n0,3\n30,-1\n");
  EXPECT_FALSE(LoadScheduleCsv(path).ok());
  // Pool sizes are integers: no NaN, fractions or out-of-range exponents.
  for (const char* size : {"nan", "2.5", "1e30"}) {
    WriteFile(path, std::string("time_seconds,pool_size\n0,3\n30,") + size +
                        "\n");
    EXPECT_FALSE(LoadScheduleCsv(path).ok()) << size;
  }
  std::remove(path.c_str());
}

TEST_F(CsvTest, SingleRowUsesDefaultInterval) {
  const std::string path = TempPath("single.csv");
  WriteFile(path, "time_seconds,value\n0,5\n");
  auto result = LoadTimeSeriesCsv(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
  EXPECT_DOUBLE_EQ(result->interval(), kDefaultIntervalSeconds);
  std::remove(path.c_str());
}

TEST_F(CsvTest, BlankLinesIgnored) {
  const std::string path = TempPath("blank.csv");
  WriteFile(path, "time_seconds,value\n0,1\n\n30,2\n");
  auto result = LoadTimeSeriesCsv(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ipool
