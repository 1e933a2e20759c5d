// Tests for the src/live streaming control plane: the end-to-end scenario
// (telemetry spike in -> recommendation out, then decay), §7.6 fault
// tolerance (a failed tick keeps serving the previous snapshot while
// staleness rises), the §7.5 guardrail stage, idle-vs-failed tick
// semantics, warm refits, the Health surface, publish-while-tick
// concurrency (the TSan job runs this binary), and trace replays through
// the plane scored by the simulator. All time is virtual: telemetry times
// are caller-supplied and the staleness clock is injected, so every
// assertion is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/recommendation_engine.h"
#include "exec/thread_pool.h"
#include "live/live_control_plane.h"
#include "live/replay.h"
#include "net/frame.h"
#include "net/router.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/sharded_document_store.h"
#include "service/recommendation_io.h"
#include "service/sharded_telemetry_store.h"
#include "service/tuning_io.h"
#include "tuning/auto_tuner.h"
#include "workload/demand_generator.h"

namespace ipool {
namespace {

using live::LiveControlPlane;
using live::LiveControlPlaneConfig;
using live::LiveStatus;
using live::TickStatus;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

net::Frame MakeRequest(net::Method method, std::string payload) {
  net::Frame frame;
  frame.type = net::FrameType::kRequest;
  frame.method = method;
  frame.request_id = 11;
  frame.payload = std::move(payload);
  return frame;
}

/// Publishes `count` equally spaced points through the router, the same
/// path a live client takes (so the test exercises the store mutex the
/// plane shares with served requests).
void PublishPoints(net::Router* router, const std::string& metric,
                   double start, size_t count, double value,
                   double interval = 30.0) {
  std::string payload;
  for (size_t i = 0; i < count; ++i) {
    payload += StrFormat("%s,%.1f,%.1f\n", metric.c_str(),
                         start + interval * static_cast<double>(i), value);
  }
  net::Frame response =
      router->Handle(MakeRequest(net::Method::kPublishTelemetry, payload));
  ASSERT_EQ(response.status, net::WireStatus::kOk) << response.payload;
}

/// Fetches and parses the served recommendation for `key`.
Result<StoredRecommendation> GetServed(net::Router* router,
                                       const std::string& key) {
  net::Frame response =
      router->Handle(MakeRequest(net::Method::kGetRecommendation, key));
  if (response.status != net::WireStatus::kOk) {
    return Status::NotFound(response.payload);
  }
  return ParseRecommendation(response.payload);
}

int64_t MaxPool(const StoredRecommendation& stored) {
  int64_t max = 0;
  for (int64_t size : stored.recommendation.pool_size_per_bin) {
    max = std::max(max, size);
  }
  return max;
}

/// Small deterministic pipeline: the baseline model forecasts
/// gamma * max(history), so served pool sizes track the window maximum and
/// the spike/decay scenario is exactly predictable.
PipelineConfig BaselinePipeline() {
  PipelineConfig config;
  config.model = ModelKind::kBaseline;
  config.recommendation_bins = 8;
  config.forecast.window = 16;
  config.forecast.horizon = 8;
  config.saa.pool.tau_bins = 1;
  config.saa.pool.stableness_bins = 4;
  return config;
}

/// The replays' 2-step SSA pipeline: hour-long recommendations on 30 s bins.
PipelineConfig SsaPipeline() {
  PipelineConfig config;
  config.kind = PipelineKind::k2Step;
  config.model = ModelKind::kSsa;
  config.forecast.window = 48;
  config.forecast.horizon = 24;
  config.saa.alpha_prime = 0.4;
  config.saa.pool.tau_bins = 3;
  config.saa.pool.stableness_bins = 10;
  config.recommendation_bins = 120;
  return config;
}

LiveControlPlaneConfig SmallLiveConfig() {
  LiveControlPlaneConfig config;
  config.bin_interval_seconds = 30.0;
  config.history_bins = 16;
  config.min_history_points = 8;
  return config;
}

TEST(LiveConfigTest, ValidateRejectsBadValues) {
  LiveControlPlaneConfig config;
  config.tick_interval_seconds = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = LiveControlPlaneConfig();
  config.demand_metric_prefix = "";
  EXPECT_FALSE(config.Validate().ok());
  config = LiveControlPlaneConfig();
  config.history_bins = 4;
  EXPECT_FALSE(config.Validate().ok());
  config = LiveControlPlaneConfig();
  config.min_history_points = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = LiveControlPlaneConfig();
  config.guardrail_mae_ratio = -1.0;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(LiveControlPlaneConfig().Validate().ok());

  ShardedTelemetryStore telemetry;
  ShardedDocumentStore documents;
  EXPECT_FALSE(LiveControlPlane::Create(nullptr, &telemetry, &documents,
                                        LiveControlPlaneConfig())
                   .ok());
}

// The ISSUE's end-to-end scenario: a demand spike injected through
// PublishTelemetry moves the served pool size within one tick, and once the
// spike ages out of the history window the pool decays back.
TEST(LiveControlPlaneTest, SpikeRaisesServedPoolThenDecays) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  double now = 0.0;
  LiveControlPlaneConfig config = SmallLiveConfig();
  config.obs.metrics = &registry;
  config.clock = [&now] { return now; };
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok()) << plane.status().ToString();
  router.set_live(plane->get());

  // No telemetry yet: the tick is idle and nothing is served.
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kIdle);
  EXPECT_FALSE(GetServed(&router, "east").ok());

  // Steady demand of 4 -> the baseline forecast is flat 4.
  PublishPoints(&router, "demand.east", /*start=*/0.0, /*count=*/8,
                /*value=*/4.0);
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  auto steady = GetServed(&router, "east");
  ASSERT_TRUE(steady.ok()) << steady.status().ToString();
  // The recommendation starts one bin after the newest telemetry point.
  EXPECT_DOUBLE_EQ(steady->start_time, 210.0 + 30.0);
  const int64_t steady_max = MaxPool(*steady);
  EXPECT_GE(steady_max, 1);
  EXPECT_LE(steady_max, 8);

  // Spike to 40: the window maximum jumps, so the pool must grow.
  PublishPoints(&router, "demand.east", /*start=*/240.0, /*count=*/8,
                /*value=*/40.0);
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  auto spiked = GetServed(&router, "east");
  ASSERT_TRUE(spiked.ok());
  const int64_t spike_max = MaxPool(*spiked);
  EXPECT_GT(spike_max, steady_max);

  // 16 quiet bins push the spike out of the 16-bin window: decay.
  PublishPoints(&router, "demand.east", /*start=*/480.0, /*count=*/16,
                /*value=*/1.0);
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  auto decayed = GetServed(&router, "east");
  ASSERT_TRUE(decayed.ok());
  EXPECT_LT(MaxPool(*decayed), spike_max);

  // The loop's own metrics saw three ok ticks and one idle one.
  EXPECT_EQ(
      registry.GetCounter("ipool_live_ticks_total", {{"status", "ok"}})
          ->value(),
      3u);
  EXPECT_EQ(
      registry.GetCounter("ipool_live_ticks_total", {{"status", "idle"}})
          ->value(),
      1u);
  EXPECT_EQ(
      registry.GetCounter("ipool_live_ticks_total", {{"status", "failed"}})
          ->value(),
      0u);
}

// §7.6: a pool whose pipeline fails keeps serving its previous document
// while the staleness age keeps rising; the next good tick recovers.
TEST(LiveControlPlaneTest, FailedTickKeepsServingPreviousSnapshot) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());

  double now = 1000.0;
  LiveControlPlaneConfig config = SmallLiveConfig();
  config.obs.metrics = &registry;
  config.clock = [&now] { return now; };
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());

  PublishPoints(&router, "demand.east", 0.0, 8, 4.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  net::Frame before =
      router.Handle(MakeRequest(net::Method::kGetRecommendation, "east"));
  ASSERT_EQ(before.status, net::WireStatus::kOk);

  // Inject a pipeline fault two minutes later: the tick fails, the served
  // payload is byte-identical, and the age gauge reports the stale window.
  now += 120.0;
  (*plane)->InjectFailures(1);
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kFailed);
  net::Frame during =
      router.Handle(MakeRequest(net::Method::kGetRecommendation, "east"));
  EXPECT_EQ(during.status, net::WireStatus::kOk);
  EXPECT_EQ(during.payload, before.payload);

  LiveStatus status = (*plane)->Snapshot();
  EXPECT_EQ(status.ticks_failed, 1u);
  EXPECT_EQ(status.last_tick_status, TickStatus::kFailed);
  EXPECT_TRUE(Contains(status.last_error, "injected"));
  EXPECT_DOUBLE_EQ(status.max_recommendation_age_seconds, 120.0);
  EXPECT_DOUBLE_EQ(
      registry
          .GetGauge("ipool_live_recommendation_age_seconds",
                    {{"pool", "east"}})
          ->value(),
      120.0);
  EXPECT_EQ(registry.GetCounter("ipool_live_pool_failures_total")->value(),
            1u);

  // Staleness keeps rising between ticks while the failure persists.
  now += 60.0;
  EXPECT_DOUBLE_EQ((*plane)->Snapshot().max_recommendation_age_seconds,
                   180.0);

  // The next tick (no fault) republishes and the age snaps back to zero.
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  status = (*plane)->Snapshot();
  EXPECT_EQ(status.last_tick_status, TickStatus::kOk);
  EXPECT_DOUBLE_EQ(status.max_recommendation_age_seconds, 0.0);
}

// §7.5 inside the tick: the baseline with gamma 50 forecasts far above the
// demand that then arrives, so at ratio 1 the second tick holds its fresh
// recommendation back. The previous document keeps its version, the hold
// is counted, and the tick is not a failure. At ratio 0 the stage does not
// run at all.
TEST(LiveControlPlaneTest, GuardrailHoldsBadForecast) {
  PipelineConfig pipeline = SsaPipeline();
  pipeline.model = ModelKind::kBaseline;
  pipeline.forecast.gamma = 50.0;
  auto engine = RecommendationEngine::Create(pipeline);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  for (const double ratio : {1.0, 0.0}) {
    SCOPED_TRACE(ratio);
    const bool guarded = ratio > 0.0;
    ShardedDocumentStore documents;
    ShardedTelemetryStore telemetry;
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    LiveControlPlaneConfig config;
    config.history_bins = 480;
    config.guardrail_mae_ratio = ratio;
    config.obs = ObsContext{&registry, &tracer};
    config.clock = [] { return 0.0; };
    auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                          config);
    ASSERT_TRUE(plane.ok()) << plane.status().ToString();

    // Flat demand of 3 per 30 s bin: 5 h before the first tick, 1 h more
    // before the second.
    for (size_t bin = 0; bin < 720; ++bin) {
      if (bin == 600) {
        ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
      }
      const double t = 30.0 * static_cast<double>(bin);
      ASSERT_TRUE(telemetry.Record("demand.east", t, 3.0).ok());
    }
    auto first = documents.Get("east");
    ASSERT_TRUE(first.ok());

    EXPECT_EQ((*plane)->TickOnce(), TickStatus::kOk);
    auto second = documents.Get("east");
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->version, first->version + (guarded ? 0 : 1));
    EXPECT_EQ(
        registry.GetCounter("ipool_live_guardrail_rejections_total")->value(),
        guarded ? 1u : 0u);
    const auto states = (*plane)->PoolStates();
    ASSERT_EQ(states.count("east"), 1u);
    EXPECT_EQ(states.at("east").guardrail_rejections, guarded ? 1u : 0u);
    EXPECT_EQ(states.at("east").failures, 0u);
    EXPECT_EQ((*plane)->Snapshot().ticks_failed, 0u);

    const auto spans = tracer.FinishedSpans();
    EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                            [](const obs::SpanRecord& span) {
                              return span.name == "live.guardrail";
                            }),
              guarded ? 2 : 0);
  }
}

// Pools below the history floor are not yet pools: they are skipped and the
// tick counts as idle, never failed (the CI smoke job asserts zero failed
// ticks on a freshly started server).
TEST(LiveControlPlaneTest, InsufficientTelemetryIsIdleNotFailed) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  LiveControlPlaneConfig config = SmallLiveConfig();
  config.obs.metrics = &registry;
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());

  for (size_t i = 0; i < 4; ++i) {  // below min_history_points = 8
    ASSERT_TRUE(
        telemetry.Record("demand.young", 30.0 * static_cast<double>(i), 2.0)
            .ok());
  }
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kIdle);
  EXPECT_FALSE(documents.Get("young").ok());
  EXPECT_EQ(registry.GetCounter("ipool_live_pools_skipped_total")->value(),
            1u);
  EXPECT_EQ(
      registry.GetCounter("ipool_live_ticks_total", {{"status", "failed"}})
          ->value(),
      0u);

  // Metrics that do not carry the demand prefix are never pools.
  ASSERT_TRUE(telemetry.Record("latency.east", 0.0, 1.0).ok());
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kIdle);
  EXPECT_FALSE(documents.Get("latency.east").ok());
}

// --warm-refit carries per-pool SSA training state across ticks: the second
// tick's refit must warm-start (observable through the SSA counter).
TEST(LiveControlPlaneTest, WarmRefitReusesForecasterState) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;

  PipelineConfig pipeline;
  pipeline.model = ModelKind::kSsa;
  pipeline.recommendation_bins = 8;
  pipeline.forecast.window = 16;
  pipeline.forecast.ssa_rank = 4;
  pipeline.saa.pool.tau_bins = 1;
  pipeline.saa.pool.stableness_bins = 4;
  pipeline.obs.metrics = &registry;
  auto engine = RecommendationEngine::Create(pipeline);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  LiveControlPlaneConfig config;
  config.bin_interval_seconds = 30.0;
  config.history_bins = 64;
  config.min_history_points = 32;
  config.warm_refit = true;
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());

  for (size_t i = 0; i < 64; ++i) {  // a deterministic periodic series
    const double value = 5.0 + static_cast<double>(i % 8);
    ASSERT_TRUE(
        telemetry.Record("demand.ssa", 30.0 * static_cast<double>(i), value)
            .ok());
  }
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  const uint64_t hits_after_cold =
      registry.GetCounter("ipool_ssa_warm_start_hits_total")->value();

  // One more point slides the window; the refit reuses the cached state.
  ASSERT_TRUE(telemetry.Record("demand.ssa", 30.0 * 64.0, 5.0).ok());
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  EXPECT_GT(registry.GetCounter("ipool_ssa_warm_start_hits_total")->value(),
            hits_after_cold);
  EXPECT_TRUE(documents.Get("ssa").ok());
}

// Health folds the loop's tick counters and staleness into its payload once
// a plane is wired in.
TEST(LiveControlPlaneTest, HealthReportsLiveFields) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  auto plane =
      LiveControlPlane::Create(&*engine, &telemetry, &documents,
                               SmallLiveConfig());
  ASSERT_TRUE(plane.ok());
  router.set_live(plane->get());

  net::Frame idle = router.Handle(MakeRequest(net::Method::kHealth, ""));
  ASSERT_EQ(idle.status, net::WireStatus::kOk);
  EXPECT_TRUE(Contains(idle.payload, "ok\n"));
  EXPECT_TRUE(Contains(idle.payload, "live_ticks_total 0"));
  EXPECT_TRUE(Contains(idle.payload, "live_last_tick_status idle"));

  PublishPoints(&router, "demand.east", 0.0, 8, 4.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  net::Frame live = router.Handle(MakeRequest(net::Method::kHealth, ""));
  EXPECT_TRUE(Contains(live.payload, "live_ticks_total 1"));
  EXPECT_TRUE(Contains(live.payload, "live_last_tick_status ok"));
  EXPECT_TRUE(Contains(live.payload, "live_pools_published 1"));
}

// The no-re-serialization contract end to end: a tick that sees no new
// telemetry republishes byte-identical documents, so the sharded store's
// payload_builds counter must stay flat — the serving path keeps handing
// out the same cached buffer and versions do not move.
TEST(LiveControlPlaneTest, UnchangedTicksDoNotReserialize) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        SmallLiveConfig());
  ASSERT_TRUE(plane.ok());
  router.set_live(plane->get());

  PublishPoints(&router, "demand.east", 0.0, 8, 4.0);
  PublishPoints(&router, "demand.west", 0.0, 8, 6.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  const uint64_t builds_after_first = documents.payload_builds();
  EXPECT_GE(builds_after_first, 2u);
  const auto east = documents.Get("east");
  ASSERT_TRUE(east.ok());
  const std::shared_ptr<const std::string> east_payload =
      documents.GetPayload("east");

  // Three more ticks with no new telemetry: same forecasts, same bytes, so
  // no payload materializes and the served buffer is literally the same
  // object.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  }
  EXPECT_EQ(documents.payload_builds(), builds_after_first);
  EXPECT_EQ(documents.GetPayload("east"), east_payload);
  EXPECT_EQ(documents.Get("east")->version, east->version);

  // New telemetry that changes the forecast rebuilds exactly the changed
  // pool's payload.
  PublishPoints(&router, "demand.east", 240.0, 8, 40.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  EXPECT_EQ(documents.payload_builds(), builds_after_first + 1);
  EXPECT_NE(documents.GetPayload("east"), east_payload);
}

// ---------------------------------------------------------------------------
// Fleet auto-tuning inside the tick (tune_interval_seconds > 0).

/// Publishes a strongly periodic wave (period 16 bins, trough 1, peak 11)
/// scaled by `level` — the regime SSA models tightly and the baseline's
/// gamma * max flattens into pure overprovisioning.
void PublishWave(net::Router* router, const std::string& metric, double start,
                 size_t count, double level) {
  std::string payload;
  for (size_t i = 0; i < count; ++i) {
    const double phase = 2.0 * M_PI *
                         static_cast<double>(start / 30.0 + double(i)) / 16.0;
    const double value = level * (6.0 + 5.0 * std::sin(phase));
    payload += StrFormat("%s,%.1f,%.3f\n", metric.c_str(),
                         start + 30.0 * static_cast<double>(i), value);
  }
  net::Frame response =
      router->Handle(MakeRequest(net::Method::kPublishTelemetry, payload));
  ASSERT_EQ(response.status, net::WireStatus::kOk) << response.payload;
}

LiveControlPlaneConfig TunedLiveConfig() {
  LiveControlPlaneConfig config;
  config.bin_interval_seconds = 30.0;
  config.history_bins = 160;
  config.min_history_points = 96;
  config.tune_interval_seconds = 100.0;
  config.tuner.models = {ModelKind::kBaseline, ModelKind::kSsa};
  config.tuner.alphas = {0.3, 0.7};
  config.tuner.windows = {16};
  config.tuner.eval_bins = 64;
  config.tuner.min_train_bins = 32;
  config.tuner.refine_steps = 0;
  return config;
}

TEST(LiveConfigTest, ValidateRejectsBadTuningValues) {
  LiveControlPlaneConfig config = TunedLiveConfig();
  EXPECT_TRUE(config.Validate().ok());

  config.tune_interval_seconds = -1.0;
  EXPECT_FALSE(config.Validate().ok());

  config = TunedLiveConfig();
  config.tuning_doc_prefix = "";
  EXPECT_FALSE(config.Validate().ok());

  // The tuner's backtest cannot need more history than the plane snapshots.
  config = TunedLiveConfig();
  config.history_bins = 64;
  EXPECT_FALSE(config.Validate().ok());
}

// The tune stage publishes `tuning.<pool>`, the NEXT tick's resolve stage
// serves with it, and a kept re-tune republishes byte-identical text that
// the payload cache absorbs (no version churn, no re-serialization).
TEST(LiveControlPlaneTest, TuneStagePublishesDocAndServesWithIt) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  double now = 0.0;
  LiveControlPlaneConfig config = TunedLiveConfig();
  config.obs.metrics = &registry;
  config.clock = [&now] { return now; };
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok()) << plane.status().ToString();
  router.set_live(plane->get());

  PublishWave(&router, "demand.east", 0.0, 160, 1.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);

  // The first tune ran and persisted a winner for the pool.
  LiveStatus status = (*plane)->Snapshot();
  EXPECT_EQ(status.tunes_total, 1u);
  EXPECT_EQ(status.tunes_failed, 0u);
  const auto doc = documents.Get("tuning.east");
  ASSERT_TRUE(doc.ok());
  auto stored = ParseTuning(doc->value);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(stored->pool, "east");
  // On a strongly periodic wave the periodic forecaster must beat the
  // baseline's flat gamma * max (which pays idle all trough long).
  EXPECT_EQ(stored->model, ModelKind::kSsa);

  // Within the tune cadence: the next tick resolves the doc into a
  // per-pool engine (pools_tuned flips to 1) but does not re-tune.
  now += 50.0;
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  status = (*plane)->Snapshot();
  EXPECT_EQ(status.tunes_total, 1u);
  EXPECT_EQ(status.pools_tuned, 1u);
  EXPECT_TRUE(GetServed(&router, "east").ok());

  // Past the cadence with unchanged telemetry: the re-tune keeps the
  // incumbent and republishes the SAME bytes — same version, same payload
  // object, no tune counted as switched.
  const int64_t version_before = documents.Get("tuning.east")->version;
  const std::shared_ptr<const std::string> payload_before =
      documents.GetPayload("tuning.east");
  now += 100.0;
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  status = (*plane)->Snapshot();
  EXPECT_EQ(status.tunes_total, 2u);
  EXPECT_EQ(status.tunes_switched, 1u);  // only the very first tune
  EXPECT_EQ(documents.Get("tuning.east")->version, version_before);
  EXPECT_EQ(documents.GetPayload("tuning.east"), payload_before);
}

// §7.6 on the tuning path: a corrupt (or truncated) tuning document never
// breaks the tick — the pool keeps serving on whatever engine it had, and
// the rejection is counted.
TEST(LiveControlPlaneTest, CorruptTuningDocKeepsServing) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  double now = 1000.0;
  LiveControlPlaneConfig config = TunedLiveConfig();
  // Cadence far in the future: this test drives the resolve stage only.
  config.tune_interval_seconds = 1e9;
  config.obs.metrics = &registry;
  config.clock = [&now] { return now; };
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());
  router.set_live(plane->get());

  PublishWave(&router, "demand.east", 0.0, 160, 1.0);
  documents.Put("tuning.east", "not a tuning document", now);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  EXPECT_TRUE(GetServed(&router, "east").ok());
  EXPECT_EQ((*plane)->Snapshot().pools_tuned, 0u);
  EXPECT_EQ(registry
                .GetCounter("ipool_live_tuning_docs_rejected_total", {})
                ->value(),
            1u);

  // A valid document recovers on the next tick: the pool flips onto its
  // per-pool engine and keeps serving.
  StoredTuning stored;
  stored.pool = "east";
  stored.model = ModelKind::kSsa;
  stored.alpha_prime = 0.5;
  stored.window = 16;
  documents.Put("tuning.east", SerializeTuning(stored), now);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  EXPECT_TRUE(GetServed(&router, "east").ok());
  EXPECT_EQ((*plane)->Snapshot().pools_tuned, 1u);
}

// The regime-change scenario end to end inside the plane: the pre-shift
// tune installs the periodic forecaster; after a permanent 6x level shift
// the re-tune demotes it for the shift-robust baseline, and the served
// tuning document switches models.
TEST(LiveControlPlaneTest, RegimeShiftSwitchesTunedModel) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  double now = 0.0;
  LiveControlPlaneConfig config = TunedLiveConfig();
  config.obs.metrics = &registry;
  config.clock = [&now] { return now; };
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());
  router.set_live(plane->get());

  PublishWave(&router, "demand.east", 0.0, 160, 1.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  auto first = ParseTuning(documents.Get("tuning.east")->value);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->model, ModelKind::kSsa);

  // The level shift: the same wave continues at 6x. The snapshot window
  // now trains on mostly pre-shift bins and evaluates on post-shift ones —
  // the periodic basis underpredicts 6x, the baseline's max adapts.
  PublishWave(&router, "demand.east", 160.0 * 30.0, 64, 6.0);
  now += 200.0;
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  auto second = ParseTuning(documents.Get("tuning.east")->value);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->model, ModelKind::kBaseline);

  const LiveStatus status = (*plane)->Snapshot();
  EXPECT_EQ(status.tunes_total, 2u);
  EXPECT_EQ(status.tunes_switched, 2u);  // first install + the demotion
  EXPECT_EQ(status.tunes_failed, 0u);

  // The next tick serves with the switched engine; serving never paused.
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  EXPECT_TRUE(GetServed(&router, "east").ok());
  EXPECT_EQ((*plane)->Snapshot().pools_tuned, 1u);
}

// Publish-while-tick: writers hammer the router while the Start()ed loop
// snapshots and publishes against the same store mutex. The TSan job runs
// this binary; any lock-discipline slip between the three tick stages and
// the served paths is a data-race report here.
TEST(LiveControlPlaneTest, ConcurrentPublishWhileTicking) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());

  exec::ThreadPool pool(2);
  LiveControlPlaneConfig config = SmallLiveConfig();
  config.tick_interval_seconds = 0.002;
  config.min_history_points = 4;
  config.exec.pool = &pool;
  config.obs.metrics = &registry;
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());
  router.set_live(plane->get());

  (*plane)->Start();
  (*plane)->Start();  // idempotent

  constexpr size_t kWriters = 4;
  constexpr size_t kBatches = 60;
  std::atomic<size_t> write_failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string metric = StrFormat("demand.writer-%zu", w);
      for (size_t b = 0; b < kBatches; ++b) {
        const std::string line = StrFormat(
            "%s,%.1f,%.1f\n", metric.c_str(),
            30.0 * static_cast<double>(b), 3.0);
        net::Frame response = router.Handle(
            MakeRequest(net::Method::kPublishTelemetry, line));
        if (response.status != net::WireStatus::kOk) {
          write_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread reader([&] {
    for (size_t i = 0; i < 200; ++i) {
      router.Handle(MakeRequest(net::Method::kGetRecommendation,
                                "writer-0"));
      router.Handle(MakeRequest(net::Method::kHealth, ""));
      router.Handle(MakeRequest(net::Method::kMetrics, ""));
    }
  });
  for (std::thread& t : writers) t.join();
  reader.join();
  (*plane)->Stop();
  (*plane)->Stop();  // idempotent

  EXPECT_EQ(write_failures.load(), 0u);
  LiveStatus status = (*plane)->Snapshot();
  EXPECT_GE(status.ticks_total, 1u);
  EXPECT_EQ(status.ticks_failed, 0u);

  // A final synchronous tick after the writers drain must publish the fleet.
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  for (size_t w = 0; w < kWriters; ++w) {
    EXPECT_TRUE(documents.Get(StrFormat("writer-%zu", w)).ok());
  }
}

// ---------------------------------------------------------------------------
// Trace replay through the plane on a virtual clock (live/replay.h).

// SSA+ with a strong overshoot bias, the deployed configuration. Plain SSA
// predicts the smooth mean with no margin and cannot reach high hit rates
// (the paper's §5.2 limitation).
PipelineConfig LoopPipeline() {
  PipelineConfig config = SsaPipeline();
  config.model = ModelKind::kSsaPlus;
  config.forecast.alpha_prime = 0.95;
  config.saa.alpha_prime = 0.2;
  return config;
}

live::ReplayConfig LoopConfig() {
  live::ReplayConfig config;
  config.run_interval_seconds = 1800.0;
  config.history_bins = 480;
  config.default_pool_size = 5;
  config.sim.creation_latency_mean_seconds = 90.0;
  return config;
}

/// A flat-rate trace (no diurnal swing) of `days` at `rate_per_minute`.
live::ReplayPool FlatTrace(double days, double rate_per_minute,
                           uint64_t seed) {
  WorkloadConfig workload;
  workload.duration_days = days;
  workload.base_rate_per_minute = rate_per_minute;
  workload.diurnal_amplitude = 0.0;
  workload.seed = seed;
  auto generator = DemandGenerator::Create(workload);
  EXPECT_TRUE(generator.ok());
  return {generator->GenerateBinned(), generator->GenerateEvents()};
}

TEST(ReplayTest, RunsEndToEnd) {
  auto engine = RecommendationEngine::Create(LoopPipeline());
  ASSERT_TRUE(engine.ok());
  const live::ReplayPool trace = FlatTrace(0.5, 6.0, 19);

  auto result = live::Replay(*engine, LoopConfig(), {trace});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  const live::ReplayResult& pool = result->front();
  EXPECT_EQ(pool.applied_schedule.size(), trace.demand.size());
  EXPECT_GT(pool.pipeline_runs, 10u);
  EXPECT_EQ(pool.sim.total_requests,
            static_cast<int64_t>(trace.request_events.size()));
  // With a functioning loop the pool hit rate should be high.
  EXPECT_GT(pool.sim.hit_rate, 0.8);
}

TEST(ReplayTest, ObservabilityCountsTicksAndNestsStageSpans) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  const ObsContext obs{&registry, &tracer};

  PipelineConfig pipeline = LoopPipeline();
  pipeline.obs = obs;  // the engine adds "forecast" / "solve" spans
  auto engine = RecommendationEngine::Create(pipeline);
  ASSERT_TRUE(engine.ok());
  const live::ReplayPool trace = FlatTrace(0.25, 6.0, 23);

  live::ReplayConfig config = LoopConfig();
  config.obs = obs;
  auto replay = live::Replay(*engine, config, {trace});
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  const live::ReplayResult& result = replay->front();

  // Metrics side: the plane's tick accounting agrees with the replay's.
  uint64_t ticks = 0;
  for (const char* status : {"ok", "failed", "idle"}) {
    ticks += registry.GetCounter("ipool_live_ticks_total", {{"status", status}})
                 ->value();
  }
  EXPECT_EQ(ticks, result.pipeline_runs);
  EXPECT_EQ(registry.GetHistogram("ipool_live_tick_seconds")->count(),
            result.pipeline_runs);
  EXPECT_EQ(
      registry.GetCounter("ipool_live_guardrail_rejections_total")->value(),
      result.guardrail_rejections);
  EXPECT_EQ(registry.GetCounter("ipool_replay_fallback_bins_total")->value(),
            result.fallback_bins);
  // Every closed bin was published as one telemetry point.
  EXPECT_DOUBLE_EQ(registry
                       .GetGauge("ipool_telemetry_points",
                                 {{"metric", "demand.pool0"}})
                       ->value(),
                   static_cast<double>(trace.demand.size() - 1));

  // Trace side: every tick nests its stage spans under the replay root, the
  // engine's spans nest under the pool's span, and children never outlast
  // their parent.
  const auto spans = tracer.FinishedSpans();
  ASSERT_EQ(tracer.dropped(), 0u);
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  uint64_t root_id = 0;
  for (const auto& span : spans) {
    by_id[span.id] = &span;
    if (span.name == "live.replay") root_id = span.id;
  }
  ASSERT_NE(root_id, 0u);
  auto parent_name = [&](const obs::SpanRecord& span) {
    auto it = by_id.find(span.parent_id);
    return it == by_id.end() ? std::string() : it->second->name;
  };
  size_t tick_spans = 0;
  size_t pool_spans = 0;
  bool saw_simulate = false;
  for (const auto& parent : spans) {
    if (parent.name == "simulate") {
      saw_simulate = true;
      EXPECT_EQ(parent.parent_id, root_id);
    }
    if (parent.name == "live.pool") {
      ++pool_spans;
      EXPECT_EQ(parent_name(parent), "live.refit_solve");
    }
    if (parent.name == "forecast" || parent.name == "solve") {
      EXPECT_EQ(parent_name(parent), "live.pool");
    }
    if (parent.name != "live.tick") continue;
    ++tick_spans;
    EXPECT_EQ(parent.parent_id, root_id);
    double child_total = 0.0;
    std::vector<std::string> child_names;
    for (const auto& child : spans) {
      if (child.parent_id != parent.id) continue;
      EXPECT_GE(child.duration_seconds, 0.0);
      EXPECT_GE(child.start_seconds, parent.start_seconds - 1e-9);
      child_total += child.duration_seconds;
      child_names.push_back(child.name);
    }
    EXPECT_LE(child_total, parent.duration_seconds + 1e-9);
    for (const char* stage : {"live.snapshot", "live.refit_solve",
                              "live.guardrail", "live.publish"}) {
      EXPECT_NE(std::find(child_names.begin(), child_names.end(), stage),
                child_names.end())
          << "live.tick span missing child " << stage;
    }
  }
  EXPECT_EQ(tick_spans, result.pipeline_runs);
  EXPECT_EQ(pool_spans, result.pipeline_runs);
  EXPECT_TRUE(saw_simulate);
}

TEST(ReplayTest, SurvivesInjectedFailures) {
  auto engine = RecommendationEngine::Create(LoopPipeline());
  ASSERT_TRUE(engine.ok());

  // Crash every other pipeline run: the previous recommendation (and
  // eventually the default) must carry the pool.
  auto result = live::Replay(*engine, LoopConfig(), {FlatTrace(0.5, 6.0, 23)},
                             [](size_t run) { return run % 2 == 1; });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->front().pipeline_failures, 0u);
  // Service stays up: requests still served at a reasonable hit rate.
  EXPECT_GT(result->front().sim.hit_rate, 0.6);
}

TEST(ReplayTest, AllFailuresFallBackToDefault) {
  auto engine = RecommendationEngine::Create(SsaPipeline());
  ASSERT_TRUE(engine.ok());
  const live::ReplayPool trace = FlatTrace(0.25, 4.0, 29);

  auto result = live::Replay(*engine, LoopConfig(), {trace},
                             [](size_t) { return true; });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const live::ReplayResult& pool = result->front();
  EXPECT_EQ(pool.pipeline_failures, pool.pipeline_runs);
  // Every applied bin is the default pool size.
  for (int64_t n : pool.applied_schedule) EXPECT_EQ(n, 5);
  EXPECT_EQ(pool.fallback_bins, trace.demand.size());
}

// The pooling worker's read (live::PoolTarget) and its §7.6 fallbacks: a
// nullopt target means the worker runs its default pool size.
StoredRecommendation SampleStored() {
  StoredRecommendation stored;
  stored.recommendation.pool_size_per_bin = {3, 4, 5};
  stored.recommendation.model_name = "SSA";
  stored.start_time = 7200.0;
  stored.interval_seconds = 30.0;
  return stored;
}

constexpr double kPoolTtl = 3600.0;

TEST(PoolingWorkerTest, FallsBackWithoutRecommendation) {
  ShardedDocumentStore documents;
  EXPECT_FALSE(live::PoolTarget(documents.Get("pool"), 100.0, kPoolTtl));
}

TEST(PoolingWorkerTest, UsesFreshRecommendation) {
  ShardedDocumentStore documents;
  const StoredRecommendation stored = SampleStored();
  documents.Put("pool", SerializeRecommendation(stored), stored.start_time);
  // The covering bin.
  EXPECT_EQ(live::PoolTarget(documents.Get("pool"), 7230.0, kPoolTtl), 4);
}

TEST(PoolingWorkerTest, StaleRecommendationFallsBackToDefault) {
  ShardedDocumentStore documents;
  const StoredRecommendation stored = SampleStored();
  documents.Put("pool", SerializeRecommendation(stored), stored.start_time);
  // Slightly outdated (within the TTL): the last bin.
  EXPECT_EQ(live::PoolTarget(documents.Get("pool"), stored.start_time + 3000.0,
                             kPoolTtl),
            5);
  // Beyond the TTL: distrusted.
  EXPECT_FALSE(live::PoolTarget(documents.Get("pool"),
                                stored.start_time + 4000.0, kPoolTtl));
}

TEST(PoolingWorkerTest, CorruptDocumentFallsBack) {
  ShardedDocumentStore documents;
  documents.Put("pool", "garbage", 0.0);
  EXPECT_FALSE(live::PoolTarget(documents.Get("pool"), 10.0, kPoolTtl));
}

TEST(ReplayTest, WarmRefitMatchesColdSchedulesAndHitsWarmStarts) {
  // The plane's warm_refit path (per-pool SsaWarmState carried across
  // ticks) must be a pure speedup: the applied schedule is identical to
  // forcing every pipeline run cold, and the SSA warm-start counters prove
  // the fast path actually engaged rather than silently refitting from
  // scratch every tick. The trace is hand-crafted rather than drawn from
  // DemandGenerator: per-bin counts follow an exact low-rank curve (DC + one
  // sinusoid = Hankel rank 3) with integer rounding as the only noise
  // (~5e-5 of the energy). That clean-spectrum regime is where the subspace
  // path engages — generator traces carry a Poisson/overdispersion noise
  // plateau that legitimately stays on the dense oracle.
  const double interval = 30.0;
  const size_t bins = 1440;  // half a day at 30 s
  std::vector<double> counts(bins);
  std::vector<double> events;
  for (size_t i = 0; i < bins; ++i) {
    const auto c = static_cast<size_t>(std::llround(
        40.0 + 20.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / 64.0) +
        6.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / 97.0)));
    counts[i] = static_cast<double>(c);
    for (size_t e = 0; e < c; ++e) {
      events.push_back(interval * (static_cast<double>(i) +
                                   (static_cast<double>(e) + 0.5) /
                                       static_cast<double>(c)));
    }
  }
  const live::ReplayPool trace{TimeSeries(0.0, interval, std::move(counts)),
                               std::move(events)};

  auto run = [&](bool warm, obs::MetricsRegistry* registry) {
    PipelineConfig pipeline = LoopPipeline();
    pipeline.obs.metrics = registry;
    // Tie-free alpha: at 0.2 the per-block SAA cost has slope
    // 0.2*8 - 0.8*2 = 0 across whole pool-size intervals (10-bin blocks),
    // so every point of the plateau is optimal and last-bit forecast
    // differences pick different — equally optimal — schedules. 0.37 has no
    // integer zero-slope split, making the argmin unique and the schedule
    // comparison meaningful.
    pipeline.saa.alpha_prime = 0.37;
    auto engine = RecommendationEngine::Create(pipeline);
    EXPECT_TRUE(engine.ok());
    live::ReplayConfig config = LoopConfig();
    config.warm_refit = warm;
    return live::Replay(*engine, config, {trace});
  };

  obs::MetricsRegistry warm_registry;
  obs::MetricsRegistry cold_registry;
  auto warm = run(true, &warm_registry);
  auto cold = run(false, &cold_registry);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  EXPECT_EQ(warm->front().applied_schedule, cold->front().applied_schedule);
  EXPECT_EQ(warm->front().pipeline_runs, cold->front().pipeline_runs);
  EXPECT_GT(warm->front().pipeline_runs, 2u);

  // Every run after the first should warm-start (same pool, sliding
  // window); the cold replay must record none.
  EXPECT_GT(
      warm_registry.GetCounter("ipool_ssa_warm_start_hits_total")->value(),
      0u);
  EXPECT_EQ(
      cold_registry.GetCounter("ipool_ssa_warm_start_hits_total")->value(),
      0u);
}

// §6 through the full control plane: the hyper-parameter tuner runs at a
// lower frequency than the pipeline. Each period replays with the current
// alpha', and the observed customer wait feeds the AutoTuner for the next
// period, steering the system to its wait-time SLA.
TEST(ReplayTest, AutoTunerSteersWaitTowardSla) {
  AutoTunerConfig tuner_config;
  tuner_config.target_wait_seconds = 2.0;
  tuner_config.initial_alpha = 0.9;  // start far too stingy
  auto tuner = AutoTuner::Create(tuner_config);
  ASSERT_TRUE(tuner.ok());

  double alpha = tuner->alpha();
  std::vector<double> waits;
  for (uint64_t period = 0; period < 6; ++period) {
    PipelineConfig pipeline = LoopPipeline();
    pipeline.saa.alpha_prime = alpha;
    auto engine = RecommendationEngine::Create(pipeline);
    ASSERT_TRUE(engine.ok());
    auto result = live::Replay(*engine, LoopConfig(),
                               {FlatTrace(0.25, 6.0, 500 + period)});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    waits.push_back(result->front().sim.avg_wait_seconds);
    alpha = tuner->Observe(alpha, waits.back());
  }
  // alpha' must have moved downward from the stingy start...
  EXPECT_LT(alpha, 0.9);
  // ...and the final period's wait must be closer to the SLA than the first.
  EXPECT_LT(std::fabs(waits.back() - 2.0), std::fabs(waits.front() - 2.0));
}

TEST(ReplayTest, RejectsBadInputs) {
  auto engine = RecommendationEngine::Create(SsaPipeline());
  ASSERT_TRUE(engine.ok());
  const live::ReplayPool trace = FlatTrace(0.1, 4.0, 3);
  EXPECT_TRUE(live::Replay(*engine, LoopConfig(), {trace}).ok());

  EXPECT_FALSE(live::Replay(*engine, LoopConfig(), {}).ok());
  live::ReplayPool shifted = trace;
  shifted.demand = TimeSeries(30.0, trace.demand.interval(),
                              std::vector<double>(trace.demand.values()));
  EXPECT_FALSE(live::Replay(*engine, LoopConfig(), {trace, shifted}).ok());

  auto rejects = [&](void (*mutate)(live::ReplayConfig*)) {
    live::ReplayConfig config = LoopConfig();
    mutate(&config);
    return !live::Replay(*engine, config, {trace}).ok();
  };
  EXPECT_TRUE(rejects([](live::ReplayConfig* c) {
    c->run_interval_seconds = 0.0;
  }));
  EXPECT_TRUE(rejects([](live::ReplayConfig* c) {
    c->recommendation_ttl_seconds = 0.0;
  }));
  EXPECT_TRUE(rejects([](live::ReplayConfig* c) {
    c->default_pool_size = -1;
  }));
  EXPECT_TRUE(rejects([](live::ReplayConfig* c) {
    c->guardrail_mae_ratio = -1.0;
  }));
  EXPECT_TRUE(rejects([](live::ReplayConfig* c) { c->history_bins = 4; }));
}

}  // namespace
}  // namespace ipool
