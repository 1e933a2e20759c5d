// fleet-tick and fleet-retune: the live control plane refreshing a fleet
// of pools from telemetry while pooling workers read recommendations.
//
// A run is kEpisodes episodes, each on a fresh stack wired as `ipool_cli
// serve --loop-interval` wires it: 16-shard stores, Router + Server on a
// ceil(n/2)-worker exec pool that runs both the request handlers and the
// tick's per-pool fan-out, and a LiveControlPlane over the serve-default
// SSA+ 2-step engine. The benchmark drives it only through public calls:
// telemetry arrives over the wire, TickOnce runs on a virtual clock, and an
// open-loop generator reads the published documents in the background.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/suite/layers.h"
#include "bench/suite/open_loop.h"
#include "bench/suite/suite.h"
#include "common/strings.h"
#include "core/recommendation_engine.h"
#include "exec/task_profiler.h"
#include "exec/thread_pool.h"
#include "live/live_control_plane.h"
#include "net/client.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/recommendation_io.h"
#include "service/sharded_document_store.h"
#include "service/sharded_telemetry_store.h"
#include "service/tuning_io.h"
#include "solver/pool_model.h"
#include "workload/demand_generator.h"

namespace ipool::bench::suite {

namespace {

constexpr double kBinSeconds = 30.0;
constexpr size_t kHistoryBins = 480;
constexpr size_t kRecommendationBins = 120;
constexpr size_t kShards = 16;
/// Episodes per untraced run. Each sets up a fresh stack (setup_s is their
/// median) and replays the same steps, so every step's refresh time is a
/// median over episodes: a slow stretch of the host during one episode
/// drops out instead of moving the result.
constexpr size_t kEpisodes = 3;
/// Served schedules are scored on the first steps only.
constexpr size_t kQualitySteps = 3;
/// Background open-loop GET rate, and the per-connection in-flight budget
/// (client and server): a whole tick's worth of GETs can queue behind the
/// fan-out without being shed.
constexpr double kGetRate = 5000.0;
constexpr size_t kGetWindow = 4096;
constexpr size_t kSpanCapacity = 1u << 19;

struct PoolInput {
  std::string key;
  /// Bin 0 is the first preloaded bin; holds TraceBins(steps) bins.
  TimeSeries trace;
};

struct FleetPlan {
  std::vector<PoolInput> pools;
  bool tune = false;
  /// Lockstep steps per episode. The step count, not the clock, ends an
  /// episode, so every run does the same work; kEpisodes x steps is sized
  /// to kRunSeconds on the 4-core reference host.
  size_t steps = 1;
  /// fleet-retune: the pools in `shifted` take a permanent level shift
  /// from the bin published at `shift_step`.
  size_t shift_step = 0;
  std::vector<size_t> shifted;
};

size_t TraceBins(size_t steps) {
  return kHistoryBins + steps + kRecommendationBins + 1;
}

TimeSeries TraceWindow(WorkloadConfig config, size_t offset, size_t bins) {
  config.duration_days =
      static_cast<double>(offset + bins) * kBinSeconds / 86400.0 + 0.01;
  auto generator = CheckOk(DemandGenerator::Create(config), "workload");
  return generator.GenerateBinned().Slice(offset, offset + bins);
}

/// One of six region x node-size profiles (by index); the history starts
/// between 06:00 and 10:00 so it covers the business-hours ramp.
PoolInput RegionPool(size_t index, uint64_t seed, size_t bins) {
  static const Region kRegions[] = {Region::kWestUs2, Region::kEastUs2};
  static const NodeSize kSizes[] = {NodeSize::kSmall, NodeSize::kMedium,
                                    NodeSize::kLarge};
  static const char* const kRegionNames[] = {"west", "east"};
  static const char* const kSizeNames[] = {"small", "medium", "large"};
  const size_t r = index % 2;
  const size_t s = (index / 2) % 3;
  const uint64_t pool_seed = exec::DeriveTaskSeed(seed, index);
  const size_t offset = 720 + static_cast<size_t>(pool_seed % 480);
  return {StrFormat("%s-%s-%02zu", kRegionNames[r], kSizeNames[s], index),
          TraceWindow(RegionNodeProfile(kRegions[r], kSizes[s], pool_seed),
                      offset, bins)};
}

/// A step takes about 1.8 s on the reference host.
FleetPlan TickPlan(const Options& options) {
  FleetPlan plan;
  plan.steps = options.smoke ? 2 : 3;
  const size_t bins = TraceBins(plan.steps);
  for (size_t i = 0; i < (options.smoke ? 2 : 12); ++i) {
    plan.pools.push_back(RegionPool(i, options.seed, bins));
  }
  return plan;
}

/// The retune traces do not vary with the seed, which drives only the GET
/// load: a tune's cost follows the models it keeps, and which models win
/// diverges between trace seeds (step cost differed 2x between seeds).
/// With these traces both regime pools serve the baseline after three
/// shifted bins (regime-00 came from SSA, regime-01 from SSA+), and the
/// smoke run's lone regime-00 moves off SSA within two.
constexpr uint64_t kRetuneTraceSeed = 10;

/// Regime pools take a permanent 6x level shift in the first published bin
/// (04:00 of their day), so every step publishes a shifted bin. The steps
/// take about 2.3, 1.5 and 1.7 s on the reference host.
FleetPlan RetunePlan(const Options& options) {
  FleetPlan plan;
  plan.tune = true;
  plan.shift_step = 0;
  plan.steps = options.smoke ? 2 : 3;
  const size_t bins = TraceBins(plan.steps);
  const double shift_day = static_cast<double>(kHistoryBins + plan.shift_step) *
                           kBinSeconds / 86400.0;
  for (size_t i = 0; i < (options.smoke ? 1 : 2); ++i) {
    const uint64_t pool_seed = exec::DeriveTaskSeed(kRetuneTraceSeed, 1000 + i);
    plan.shifted.push_back(plan.pools.size());
    plan.pools.push_back({StrFormat("regime-%02zu", i),
                          TraceWindow(RegimeShiftProfile(pool_seed, shift_day),
                                      0, bins)});
  }
  return plan;
}

/// `ipool_cli serve`'s engine defaults.
PipelineConfig ServePipeline(const ObsContext& obs) {
  PipelineConfig pipeline;
  pipeline.model = ModelKind::kSsaPlus;
  pipeline.forecast.window = 96;
  pipeline.forecast.horizon = 48;
  pipeline.forecast.alpha_prime = 0.9;
  pipeline.saa.alpha_prime = 0.3;
  pipeline.saa.pool.tau_bins = 3;
  pipeline.saa.pool.max_pool_size = 500;
  pipeline.recommendation_bins = kRecommendationBins;
  pipeline.obs = obs;
  return pipeline;
}

std::string TelemetryLine(const PoolInput& pool, size_t bin) {
  return StrFormat("demand.%s,%.17g,%.17g\n", pool.key.c_str(),
                   pool.trace.TimeAt(bin), pool.trace.value(bin));
}

/// One serving process. Members are declared in dependency order, so the
/// server drains before the router, plane, pool and stores it uses go away.
struct FleetStack {
  FleetStack(const FleetPlan& fleet, const CpuLayout& layout, bool traced)
      : plan(fleet) {
    if (traced) tracer = std::make_unique<obs::Tracer>(kSpanCapacity);
    const ObsContext obs{&registry, tracer.get()};
    pool = std::make_unique<exec::ThreadPool>(layout.exec_threads);
    PinWorkers(pool.get(), layout.server);
    if (traced) pool->AttachProfiler(&profiler);
    engine.emplace(
        CheckOk(RecommendationEngine::Create(ServePipeline(obs)), "engine"));

    live::LiveControlPlaneConfig live_config;
    live_config.bin_interval_seconds = kBinSeconds;
    live_config.history_bins = kHistoryBins;
    live_config.warm_refit = true;
    live_config.exec.pool = pool.get();
    live_config.obs = obs;
    live_config.clock = [this] { return clock.load(); };
    if (plan.tune) {
      live_config.tune_interval_seconds = kBinSeconds;  // every tick
      live_config.tuner.eval_bins = kRecommendationBins;
      live_config.tuner.min_train_bins = 192;
    }
    plane = CheckOk(live::LiveControlPlane::Create(&*engine, &telemetry,
                                                   &documents, live_config),
                    "live control plane");
    router = std::make_unique<net::Router>(
        net::RouterConfig{&documents, &telemetry, &registry});
    router->set_live(plane.get());

    net::ServerConfig server_config;
    server_config.pool = pool.get();
    server_config.max_inflight_per_conn = kGetWindow;
    server_config.metrics = &registry;
    if (traced) handler_seconds = registry.GetHistogram(kHandlerHistogram);
    server = CheckOk(
        net::Server::Start(server_config,
                           [this](const net::Frame& request) {
                             return Handle(request);
                           }),
        "server");
  }
  FleetStack(const FleetStack&) = delete;
  FleetStack& operator=(const FleetStack&) = delete;

  net::ClientConfig Client() const {
    net::ClientConfig config;
    config.port = server->port();
    config.request_timeout_seconds = 60.0;
    return config;
  }

  /// Publishes the first kHistoryBins of every pool over the wire, then
  /// runs the cold tick. Returns "" or what went wrong.
  std::string Preload() {
    net::Client client(Client());
    for (const PoolInput& input : plan.pools) {
      std::string payload;
      for (size_t bin = 0; bin < kHistoryBins; ++bin) {
        payload += TelemetryLine(input, bin);
      }
      auto frame = client.Call(net::Method::kPublishTelemetry, payload);
      if (!frame.ok() || frame->status != net::WireStatus::kOk) {
        return "preload publish failed for " + input.key;
      }
    }
    clock.store(plan.pools.front().trace.TimeAt(kHistoryBins - 1));
    const live::TickStatus status = plane->TickOnce();
    return status == live::TickStatus::kOk
               ? ""
               : std::string("cold tick ") + live::TickStatusName(status);
  }

  /// Publishes bin kHistoryBins + step of every pool in one pipelined
  /// window and advances the virtual clock; returns failed publishes.
  size_t PublishStep(net::Client& client, size_t step) {
    std::vector<net::PipelinedRequest> window;
    for (const PoolInput& input : plan.pools) {
      window.push_back({net::Method::kPublishTelemetry,
                        TelemetryLine(input, kHistoryBins + step)});
    }
    clock.store(plan.pools.front().trace.TimeAt(kHistoryBins + step));
    auto frames = client.CallPipelined(window);
    if (!frames.ok()) return window.size();
    size_t failed = 0;
    for (const net::Frame& frame : *frames) {
      failed += frame.status == net::WireStatus::kOk ? 0 : 1;
    }
    return failed;
  }

  net::Frame Handle(const net::Frame& request) {
    if (handler_seconds == nullptr) return router->Handle(request);
    obs::ScopedSpan span(tracer.get(), "bench.handle");
    const double start = NowSeconds();
    net::Frame response = router->Handle(request);
    if (request.method == net::Method::kGetRecommendation) {
      handler_seconds->Observe(NowSeconds() - start);
    }
    return response;
  }

  const FleetPlan& plan;
  std::atomic<double> clock{0.0};
  obs::Histogram* handler_seconds = nullptr;
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::Tracer> tracer;
  exec::TaskProfiler profiler;
  ShardedDocumentStore documents{kShards};
  ShardedTelemetryStore telemetry{kShards};
  std::unique_ptr<exec::ThreadPool> pool;
  std::optional<RecommendationEngine> engine;
  std::unique_ptr<live::LiveControlPlane> plane;
  std::unique_ptr<net::Router> router;
  std::unique_ptr<net::Server> server;
};

struct Episode {
  double setup_seconds = 0.0;
  /// Per step: publish start to TickOnce return.
  std::vector<double> refresh_seconds;
  LoadStats gets;
  /// Traced episodes only.
  Report layers;
};

/// Sums (avg capped wait, idle cluster-seconds) of every pool's served
/// schedule against the demand that followed the bin published at `step`.
void ScoreServed(const FleetStack& stack, size_t step, double* wait_sum,
                 double* idle_sum, size_t* scored, WorkloadResult* result) {
  for (const PoolInput& input : stack.plan.pools) {
    auto doc = stack.documents.Get(input.key);
    auto stored = doc.ok() ? ParseRecommendation(doc->value)
                           : Result<StoredRecommendation>(doc.status());
    if (!stored.ok()) {
      result->Fail("no served document for " + input.key);
      continue;
    }
    const size_t first = kHistoryBins + step + 1;
    auto metrics = EvaluateSchedule(
        input.trace.Slice(first, first + kRecommendationBins),
        stored->recommendation.pool_size_per_bin,
        stack.engine->config().saa.pool);
    if (!metrics.ok()) {
      result->Fail("cannot score " + input.key);
      continue;
    }
    *wait_sum += metrics->avg_wait_seconds_capped;
    *idle_sum += metrics->idle_cluster_seconds;
    ++*scored;
  }
}

/// fleet-tick: every 4th pool recomputed cold and serially from the
/// telemetry the plane saw must serialize to the bytes it served, which
/// checks warm == cold and parallel == serial at once.
void CheckColdRecompute(const FleetStack& stack, WorkloadResult* result) {
  for (size_t i = 0; i < stack.plan.pools.size(); i += 4) {
    const std::string& key = stack.plan.pools[i].key;
    auto view = stack.telemetry.SnapshotBinned("demand." + key, kBinSeconds,
                                               kHistoryBins);
    auto served = stack.documents.Get(key);
    if (!view.ok() || !served.ok()) {
      result->Fail("cold recompute: missing state for " + key);
      continue;
    }
    auto rec = stack.engine->Run(view->history);
    if (!rec.ok()) {
      result->Fail("cold recompute failed for " + key);
      continue;
    }
    StoredRecommendation stored;
    stored.recommendation = std::move(*rec);
    stored.start_time = view->last_time + kBinSeconds;
    stored.interval_seconds = kBinSeconds;
    if (SerializeRecommendation(stored) != served->value) {
      result->Fail("warm parallel document differs from cold serial for " +
                   key);
    }
  }
}

/// The model named by the pool's served tuning document, if it has one.
std::optional<ModelKind> TunedModel(const FleetStack& stack,
                                    const std::string& key) {
  auto doc = stack.documents.Get("tuning." + key);
  auto tuning = doc.ok() ? ParseTuning(doc->value)
                         : Result<StoredTuning>(doc.status());
  if (!tuning.ok()) return std::nullopt;
  return tuning->model;
}

/// One episode: a fresh stack (timed as set-up: stack, preload and cold
/// tick), then plan.steps lockstep publish + TickOnce steps under
/// background GETs, then the checks; fleet-tick's cold recompute, which
/// takes seconds, runs only when `recompute`. A traced episode also
/// collects the per-layer metrics; `untraced_seconds` is the untraced
/// trajectory time they compare against.
Episode RunEpisode(const FleetPlan& plan, const Options& options,
                   const CpuLayout& layout, bool traced, bool recompute,
                   double untraced_seconds, WorkloadResult* result) {
  Episode out;
  const double setup_start = NowSeconds();
  // The event loop and the exec workers inherit the server CPUs; the thread
  // calling TickOnce then moves to its own.
  if (!PinCurrentThread(layout.server)) {
    result->Fail("cannot pin to server CPUs");
  }
  auto stack = std::make_unique<FleetStack>(plan, layout, traced);
  if (!PinCurrentThread(layout.tick)) {
    result->Fail("cannot pin the tick thread");
  }
  const std::string error = stack->Preload();
  out.setup_seconds = NowSeconds() - setup_start;
  if (!error.empty()) {
    result->Fail(error);
    return out;
  }

  std::vector<std::string> keys;
  for (const PoolInput& input : plan.pools) keys.push_back(input.key);
  LoadConfig load;
  load.port = stack->server->port();
  load.connections = layout.connections;
  load.threads =
      layout.pinned ? layout.fleet_client.size() : layout.gen_threads;
  load.cpus = layout.fleet_client;
  // No busy-polling: these GETs wait out tick chunks of milliseconds, so a
  // wake-up's microseconds do not matter, and with a fourth CPU kept busy
  // the refresh times spread more (README.md, "CPU layout and load").
  load.rate_per_second = kGetRate;
  load.window = kGetWindow;
  load.seed = exec::DeriveTaskSeed(options.seed, 7);
  load.keys = &keys;

  net::Client publisher(stack->Client());
  obs::Tracer* tracer = stack->tracer.get();
  obs::Counter* pool_failures =
      stack->registry.GetCounter("ipool_live_pool_failures_total");
  const uint64_t pool_failures_before = pool_failures->value();
  const live::LiveStatus status_before = stack->plane->Snapshot();
  const uint64_t steals_before = stack->pool->tasks_stolen();
  const uint64_t builds_before = stack->documents.payload_builds();
  stack->profiler.Clear();
  const double span_start = tracer != nullptr ? tracer->Now() : 0.0;

  // fleet-retune: the model each shifted pool served just before the shift.
  std::map<std::string, std::optional<ModelKind>> pre_shift;
  std::vector<double> tick_seconds;
  double wait_sum = 0.0, idle_sum = 0.0;
  size_t scored = 0, publish_failed = 0;
  const double region_start = NowSeconds();
  LoadGenerator generator(load);
  for (size_t step = 0; step < plan.steps; ++step) {
    if (plan.tune && step == plan.shift_step) {
      for (size_t i : plan.shifted) {
        pre_shift[plan.pools[i].key] = TunedModel(*stack, plan.pools[i].key);
      }
    }
    obs::ScopedSpan step_span(tracer, "bench.step");
    const double start = NowSeconds();
    {
      obs::ScopedSpan span(tracer, "bench.publish");
      publish_failed += stack->PublishStep(publisher, step);
    }
    const double tick_start = NowSeconds();
    live::TickStatus status;
    {
      obs::ScopedSpan span(tracer, "bench.tick");
      status = stack->plane->TickOnce();
    }
    const double end = NowSeconds();
    tick_seconds.push_back(end - tick_start);
    out.refresh_seconds.push_back(end - start);
    if (status != live::TickStatus::kOk) {
      result->Fail(StrFormat("step %zu tick %s", step,
                             live::TickStatusName(status)));
    }
    if (step < kQualitySteps) {
      ScoreServed(*stack, step, &wait_sum, &idle_sum, &scored, result);
    }
  }
  out.gets = generator.Stop();
  const double region_seconds = NowSeconds() - region_start;
  stack->pool->Wait();

  // Accounting: GETs, publishes, per-pool pipeline runs and tunes.
  const live::LiveStatus status_after = stack->plane->Snapshot();
  const uint64_t pipelines = plan.pools.size() * plan.steps;
  const uint64_t tunes = status_after.tunes_total - status_before.tunes_total;
  const uint64_t tunes_failed =
      status_after.tunes_failed - status_before.tunes_failed;
  result->attempted +=
      out.gets.attempted + 2 * pipelines + (plan.tune ? tunes : 0);
  result->failed += out.gets.failed + publish_failed +
                    (pool_failures->value() - pool_failures_before) +
                    tunes_failed;
  for (const std::string& error : out.gets.errors) {
    result->Fail("GET load: " + error);
  }
  if (out.gets.mismatched != 0) result->Fail("GET returned a foreign payload");
  if (publish_failed != 0) result->Fail("telemetry publish failed");
  if (tunes_failed != 0) result->Fail("a tune failed");

  if (plan.tune) {
    // Every shifted pool must end on another model than it served before.
    for (const auto& [key, before] : pre_shift) {
      const std::optional<ModelKind> after = TunedModel(*stack, key);
      if (!before || !after) {
        result->Fail("no tuning document for " + key);
      } else if (*after == *before) {
        result->Fail(key + " still serves " + ModelKindToString(*before) +
                     " after the level shift");
      } else {
        std::fprintf(stderr, "%s retuned %s -> %s\n", key.c_str(),
                     ModelKindToString(*before).c_str(),
                     ModelKindToString(*after).c_str());
      }
    }
    if (stack->registry.GetCounter("ipool_live_tuning_docs_rejected_total")
            ->value() != 0) {
      result->Fail("the plane rejected a published tuning document");
    }
  } else if (recompute) {
    CheckColdRecompute(*stack, result);
  }

  if (traced) {
    double traced_seconds = 0.0;
    for (double seconds : out.refresh_seconds) traced_seconds += seconds;
    LayerInputs in;
    in.registry = &stack->registry;
    in.tracer = tracer;
    in.span_start_seconds = span_start;
    in.profiler = &stack->profiler;
    in.gets = &out.gets;
    in.region_seconds = region_seconds;
    in.exec_threads = layout.exec_threads;
    in.steals = stack->pool->tasks_stolen() - steals_before;
    in.tick_seconds = tick_seconds;
    in.payload_builds = stack->documents.payload_builds() - builds_before;
    in.trace_overhead_pct =
        untraced_seconds > 0.0
            ? (traced_seconds / untraced_seconds - 1.0) * 100.0
            : 0.0;
    in.avg_wait_seconds = scored > 0 ? wait_sum / scored : 0.0;
    in.idle_hours = scored > 0 ? idle_sum / scored / 3600.0 : 0.0;
    out.layers = CollectLayers(in);
    if (!WriteTraceFile(options.trace_dir, "spans.jsonl",
                        obs::SpansJsonl(*tracer)) ||
        !WriteTraceFile(options.trace_dir, "tasks.jsonl",
                        exec::TaskTimelineJsonl(stack->profiler))) {
      result->Fail("cannot write trace files to " + options.trace_dir);
    }
  }
  std::fprintf(stderr, "%s episode: pools %zu, set-up %.3f s, refresh",
               options.workload.c_str(), plan.pools.size(), out.setup_seconds);
  for (double seconds : out.refresh_seconds) {
    std::fprintf(stderr, " %.3f", seconds);
  }
  std::fprintf(stderr, " s\n");
  return out;
}

WorkloadResult RunFleet(const FleetPlan& plan, const Options& options,
                        const CpuLayout& layout) {
  WorkloadResult result;
  // A traced full run makes one episode fewer untraced, then one traced.
  const bool two_passes = TwoPasses(options);
  const size_t episodes =
      options.smoke ? 1 : (two_passes ? kEpisodes - 1 : kEpisodes);
  std::vector<Episode> untraced;
  for (size_t e = 0; e < episodes && result.correct; ++e) {
    untraced.push_back(RunEpisode(plan, options, layout,
                                  /*traced=*/options.trace && !two_passes,
                                  /*recompute=*/e + 1 == episodes, 0.0,
                                  &result));
  }
  if (!result.correct) return result;

  // Each step's refresh time is its median over episodes; the trajectory
  // time is their sum.
  std::vector<double> step_seconds;
  double trajectory_seconds = 0.0;
  for (size_t step = 0; step < plan.steps; ++step) {
    std::vector<double> refresh;
    for (const Episode& episode : untraced) {
      refresh.push_back(episode.refresh_seconds[step]);
    }
    step_seconds.push_back(Median(refresh));
    trajectory_seconds += step_seconds.back();
  }
  std::vector<double> setup_seconds;
  for (const Episode& episode : untraced) {
    setup_seconds.push_back(episode.setup_seconds);
  }
  result.end_to_end.Set("setup_s", Median(setup_seconds), "s");
  result.end_to_end.Set("rss_mb", PeakRssMb(), "MB");
  // The latency is the median step's: how long a published bin takes to
  // reach every pool's served documents. The background GETs' median is
  // per-layer only. On fleet-retune it flipped between a free worker
  // (0.05 ms) and a wait behind a tune chunk (1-2 ms) as the host slowed;
  // on fleet-tick, where every GET waits out the tick's fan-out, it moved
  // three times as much as the refresh time did.
  result.end_to_end.Set("latency_p50_ms", Median(step_seconds) * 1e3, "ms");
  result.end_to_end.Set(
      "throughput_per_s",
      static_cast<double>(plan.pools.size() * plan.steps) / trajectory_seconds,
      "1/s");
  result.per_layer = two_passes ? RunEpisode(plan, options, layout,
                                             /*traced=*/true,
                                             /*recompute=*/true,
                                             trajectory_seconds, &result)
                                      .layers
                                : untraced.back().layers;
  return result;
}

}  // namespace

WorkloadResult RunFleetTick(const Options& options, const CpuLayout& layout) {
  return RunFleet(TickPlan(options), options, layout);
}

WorkloadResult RunFleetRetune(const Options& options,
                              const CpuLayout& layout) {
  return RunFleet(RetunePlan(options), options, layout);
}

}  // namespace ipool::bench::suite
