#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/recommendation_engine.h"
#include "obs/metrics.h"
#include "service/recommendation_io.h"
#include "service/telemetry_store.h"

namespace ipool {
namespace {

// ---- telemetry store --------------------------------------------------------

TEST(TelemetryStoreTest, RecordAndQueryBinned) {
  TelemetryStore store;
  ASSERT_TRUE(store.Record("req", 5.0, 1.0).ok());
  ASSERT_TRUE(store.Record("req", 35.0, 1.0).ok());
  ASSERT_TRUE(store.Record("req", 36.0, 1.0).ok());
  ASSERT_TRUE(store.Record("req", 65.0, 2.0).ok());

  auto binned = store.QueryBinned("req", 0.0, 30.0, 3);
  ASSERT_TRUE(binned.ok());
  EXPECT_DOUBLE_EQ(binned->value(0), 1.0);
  EXPECT_DOUBLE_EQ(binned->value(1), 2.0);
  EXPECT_DOUBLE_EQ(binned->value(2), 2.0);
}

TEST(TelemetryStoreTest, RejectsOutOfOrder) {
  TelemetryStore store;
  ASSERT_TRUE(store.Record("req", 10.0, 1.0).ok());
  EXPECT_FALSE(store.Record("req", 5.0, 1.0).ok());
  // Other metrics are independent.
  EXPECT_TRUE(store.Record("other", 1.0, 1.0).ok());
}

TEST(TelemetryStoreTest, UnknownMetricIsZero) {
  TelemetryStore store;
  auto binned = store.QueryBinned("ghost", 0.0, 30.0, 4);
  ASSERT_TRUE(binned.ok());
  EXPECT_DOUBLE_EQ(binned->Sum(), 0.0);
  EXPECT_DOUBLE_EQ(store.Sum("ghost", 0, 100), 0.0);
  EXPECT_EQ(store.PointCount("ghost"), 0u);
}

TEST(TelemetryStoreTest, SumOverRange) {
  TelemetryStore store;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    ASSERT_TRUE(store.Record("m", t, 1.0).ok());
  }
  EXPECT_DOUBLE_EQ(store.Sum("m", 2.0, 4.0), 2.0);  // [2, 4): points 2, 3
  EXPECT_DOUBLE_EQ(store.LastTime("m"), 4.0);
}

TEST(TelemetryStoreTest, CountInRangeAndMetricNames) {
  TelemetryStore store;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    ASSERT_TRUE(store.Record("reqs", t, 10.0).ok());  // value != count
  }
  ASSERT_TRUE(store.Record("alerts", 2.0, 1.0).ok());
  EXPECT_EQ(store.CountInRange("reqs", 2.0, 4.0), 2);  // [2, 4): points 2, 3
  EXPECT_EQ(store.CountInRange("reqs", 0.0, 100.0), 4);
  EXPECT_EQ(store.CountInRange("reqs", 4.5, 9.0), 0);
  EXPECT_EQ(store.CountInRange("ghost", 0.0, 100.0), 0);
  EXPECT_EQ(store.Metrics(), (std::vector<std::string>{"alerts", "reqs"}));
}

TEST(TelemetryStoreTest, PublishToExportsPerMetricGauges) {
  TelemetryStore store;
  ASSERT_TRUE(store.Record("m", 1.0, 2.0).ok());
  ASSERT_TRUE(store.Record("m", 5.0, 4.0).ok());
  obs::MetricsRegistry registry;
  store.PublishTo(&registry);
  const obs::LabelSet labels = {{"metric", "m"}};
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("ipool_telemetry_points", labels)->value(), 2.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("ipool_telemetry_value_sum", labels)->value(), 6.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("ipool_telemetry_last_time", labels)->value(), 5.0);
  store.PublishTo(nullptr);  // no-op, not a crash
}

// ---- recommendation io ------------------------------------------------------

StoredRecommendation SampleStored() {
  StoredRecommendation stored;
  stored.recommendation.pool_size_per_bin = {3, 4, 5};
  stored.recommendation.predicted_demand = {1.5, 2.25, 3.0};
  stored.recommendation.model_name = "SSA+";
  stored.recommendation.pipeline = PipelineKind::kEndToEnd;
  stored.start_time = 7200.0;
  stored.interval_seconds = 30.0;
  return stored;
}

TEST(RecommendationIoTest, RoundTrips) {
  StoredRecommendation stored = SampleStored();
  auto parsed = ParseRecommendation(SerializeRecommendation(stored));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->recommendation.pool_size_per_bin,
            stored.recommendation.pool_size_per_bin);
  EXPECT_EQ(parsed->recommendation.model_name, "SSA+");
  EXPECT_EQ(parsed->recommendation.pipeline, PipelineKind::kEndToEnd);
  EXPECT_DOUBLE_EQ(parsed->start_time, 7200.0);
  EXPECT_DOUBLE_EQ(parsed->interval_seconds, 30.0);
  ASSERT_EQ(parsed->recommendation.predicted_demand.size(), 3u);
  EXPECT_NEAR(parsed->recommendation.predicted_demand[1], 2.25, 1e-9);
}

TEST(RecommendationIoTest, RejectsGarbage) {
  EXPECT_FALSE(ParseRecommendation("").ok());
  EXPECT_FALSE(ParseRecommendation("v2\npool=1").ok());
  EXPECT_FALSE(ParseRecommendation("v1\nnonsense").ok());
  EXPECT_FALSE(ParseRecommendation("v1\nmodel=x\n").ok());  // no schedule
}

TEST(RecommendationIoTest, TargetAtSelectsBin) {
  StoredRecommendation stored = SampleStored();
  EXPECT_EQ(stored.TargetAt(7200.0), 3);
  EXPECT_EQ(stored.TargetAt(7229.9), 3);
  EXPECT_EQ(stored.TargetAt(7230.0), 4);
  EXPECT_EQ(stored.TargetAt(7290.0), 5);   // past the window: last bin
  EXPECT_EQ(stored.TargetAt(99999.0), 5);  // stale fallback value
  EXPECT_EQ(stored.TargetAt(0.0), 3);      // before the window: first bin
  // A parseable document whose bin index overflows size_t.
  auto far = ParseRecommendation("v1\nstart=-1e30\ninterval=1\npool=3,4,5\n");
  ASSERT_TRUE(far.ok()) << far.status().ToString();
  EXPECT_EQ(far->TargetAt(0.0), 5);
}

TEST(RecommendationIoTest, RandomGarbageNeverCrashes) {
  // The pooling worker parses documents written by another service; hostile
  // or corrupt bytes must yield an error, never UB.
  Rng rng(55);
  const std::string alphabet = "v1\n=,.0123456789abcpoolmdei-+";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 120));
    for (size_t i = 0; i < len; ++i) {
      text += alphabet[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))];
    }
    auto parsed = ParseRecommendation(text);
    if (parsed.ok()) {
      // Anything accepted must at least be structurally sound.
      EXPECT_FALSE(parsed->recommendation.pool_size_per_bin.empty());
      EXPECT_GT(parsed->interval_seconds, 0.0);
    }
  }
}

TEST(RecommendationIoTest, RejectsOversizedDocument) {
  // A document over the byte cap is refused before any content parsing.
  std::string huge = "v1\npool=";
  huge.append(kMaxRecommendationBytes, '1');
  auto parsed = ParseRecommendation(huge);
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().ToString().find("exceeds cap") !=
              std::string::npos)
      << parsed.status().ToString();
}

TEST(RecommendationIoTest, RejectsDuplicateFields) {
  const std::string base = SerializeRecommendation(SampleStored());
  for (const char* dup :
       {"model=TST\n", "pipeline=E2E\n", "start=1\n", "interval=1\n",
        "pool=1\n", "demand=1\n"}) {
    EXPECT_FALSE(ParseRecommendation(base + dup).ok()) << dup;
  }
}

TEST(RecommendationIoTest, RejectsPartialNumericTokens) {
  // atof-style prefix parsing would accept all of these; strict parsing
  // treats a trailing-garbage numeral as corruption.
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=12abc\ninterval=30\npool=1\n").ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1,2x,3\n").ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1\ndemand=1.5.2\n")
          .ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=nan\npool=1\n").ok());
  // Floating-point pool sizes are not integers.
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1.5\n").ok());
}

TEST(RecommendationIoTest, RejectsEmptyListItemsAndNegativePools) {
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1,,2\n").ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1,2,\n").ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=3,-1\n").ok());
  EXPECT_FALSE(ParseRecommendation(
                   "v1\nstart=0\ninterval=30\npool=1\ndemand=1.0,,2.0\n")
                   .ok());
}

TEST(RecommendationIoTest, RejectsUnknownPipelineAndFields) {
  EXPECT_FALSE(ParseRecommendation(
                   "v1\npipeline=3-step\nstart=0\ninterval=30\npool=1\n")
                   .ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1\nbogus=1\n").ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=-30\npool=1\n").ok());
}

TEST(RecommendationIoTest, TruncatedSerializationRejected) {
  StoredRecommendation stored = SampleStored();
  const std::string full = SerializeRecommendation(stored);
  // Chopping the document anywhere before the pool line must fail.
  const size_t pool_pos = full.find("pool=");
  ASSERT_NE(pool_pos, std::string::npos);
  for (size_t cut : {size_t{0}, size_t{2}, pool_pos / 2, pool_pos}) {
    EXPECT_FALSE(ParseRecommendation(full.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

}  // namespace
}  // namespace ipool
