// serve-read: the request path alone. 4096 pools each serve a distinct
// baseline-model recommendation, built in set-up; no live plane runs, so
// forecasting is idle and every cycle goes to net + the service read path.
// The distinct payloads (~10 MB) keep the working set past per-core L2.
//
//   (A) open loop: Poisson GETs at a fixed rate with Zipf(1.1) keys;
//   (B) closed loop: 4 connections x window 32, for saturation throughput.
#include <algorithm>
#include <cmath>
#include <memory>
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
#include "net/router.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/recommendation_io.h"
#include "service/sharded_document_store.h"
#include "service/sharded_telemetry_store.h"
#include "solver/pool_model.h"
#include "workload/demand_generator.h"

namespace ipool::bench::suite {

namespace {

constexpr double kBinSeconds = 30.0;
constexpr size_t kHistoryBins = 240;
constexpr size_t kRecommendationBins = 120;
constexpr size_t kShards = 16;
/// Fixed open-loop rate, frozen so every build is offered the same load.
/// Two server cores saturated at 120-200k req/s on the reference host,
/// depending on how much other tenants slowed it (README.md), so this stays
/// at or below a quarter of saturation. At 60k req/s the median carried
/// queueing that swung with the host's speed: alternating runs spread
/// 0.13 of their median against 0.07 here, and at 90k req/s two runs of
/// eight fell behind into a backlog.
constexpr double kOpenLoopRate = 30000.0;
constexpr double kZipfS = 1.1;
constexpr size_t kOpenLoopWindow = 256;
constexpr size_t kSaturationConnections = 4;
constexpr size_t kSaturationWindow = 32;
/// Share of the measured time given to the open-loop phase.
constexpr double kOpenLoopShare = 0.7;
/// The two phases alternate, one window each at a time, so both sample the
/// same stretch of the host's state; the metrics are medians over windows.
/// An untraced full pass sets up a fresh stack (about 0.25 s) before each
/// window pair, and setup_s is their median: the host's CPUs change speed
/// every few seconds, each on its own, and set-ups made back to back all
/// caught the same state (0.20 s in one run, 0.33 s in the next).
constexpr size_t kWindows = 10;

struct PoolTrace {
  TimeSeries history;
  TimeSeries truth;  ///< the kRecommendationBins bins after the history
};

/// Per-pool traces: one of six region x node-size day traces, a pool-seeded
/// window and scale. Each pool's history starts on its own virtual day, so
/// every document (which carries its start time) is distinct.
std::vector<PoolTrace> MakeTraces(uint64_t seed, size_t pools) {
  std::vector<TimeSeries> days;
  for (Region region : {Region::kWestUs2, Region::kEastUs2}) {
    for (NodeSize size : {NodeSize::kSmall, NodeSize::kMedium,
                          NodeSize::kLarge}) {
      WorkloadConfig config =
          RegionNodeProfile(region, size, exec::DeriveTaskSeed(seed, days.size()));
      config.duration_days = 1.0;
      days.push_back(
          CheckOk(DemandGenerator::Create(config), "workload").GenerateBinned());
    }
  }
  const size_t span = kHistoryBins + kRecommendationBins;
  std::vector<PoolTrace> traces;
  for (size_t i = 0; i < pools; ++i) {
    const uint64_t pool_seed = exec::DeriveTaskSeed(seed, 100 + i);
    const TimeSeries& day = days[i % days.size()];
    const size_t offset = static_cast<size_t>(pool_seed % (day.size() - span));
    const double scale = 0.5 + static_cast<double>(pool_seed >> 40 & 1023) / 1024.0;
    std::vector<double> values;
    for (size_t b = 0; b < span; ++b) {
      values.push_back(std::round(day.value(offset + b) * scale));
    }
    const TimeSeries window(86400.0 * static_cast<double>(i) +
                                kBinSeconds * static_cast<double>(offset),
                            kBinSeconds, std::move(values));
    traces.push_back({window.Slice(0, kHistoryBins),
                      window.Slice(kHistoryBins, span)});
  }
  return traces;
}

PipelineConfig BaselinePipeline() {
  PipelineConfig pipeline;
  pipeline.model = ModelKind::kBaseline;
  pipeline.saa.alpha_prime = 0.3;
  pipeline.saa.pool.tau_bins = 3;
  pipeline.saa.pool.max_pool_size = 500;
  pipeline.recommendation_bins = kRecommendationBins;
  return pipeline;
}

/// The serving process. Declared in dependency order, so the server drains
/// before the router, pool and store it uses go away.
struct ReadStack {
  ReadStack(const std::vector<PoolTrace>& traces,
            const std::vector<std::string>& keys, const CpuLayout& layout,
            bool traced) {
    pool = std::make_unique<exec::ThreadPool>(layout.exec_threads);
    PinWorkers(pool.get(), layout.server);
    if (traced) {
      pool->AttachProfiler(&profiler);
      handler_seconds = registry.GetHistogram(kHandlerHistogram);
    }
    auto engine =
        CheckOk(RecommendationEngine::Create(BaselinePipeline()), "engine");
    recommendations = exec::ParallelMap(
        pool.get(), traces.size(), [&](size_t i) {
          return CheckOk(engine.Run(traces[i].history), "recommend");
        });
    std::vector<ShardedDocumentStore::PutOp> puts;
    for (size_t i = 0; i < traces.size(); ++i) {
      StoredRecommendation stored;
      stored.recommendation = recommendations[i];
      stored.start_time = traces[i].truth.start();
      stored.interval_seconds = kBinSeconds;
      payloads.push_back(SerializeRecommendation(stored));
      puts.push_back({keys[i], payloads.back(), stored.start_time});
    }
    documents.PutBatch(std::move(puts));

    router = std::make_unique<net::Router>(
        net::RouterConfig{&documents, &telemetry, &registry});
    net::ServerConfig config;
    config.pool = pool.get();
    config.max_inflight_per_conn = kOpenLoopWindow;
    config.metrics = &registry;
    server = CheckOk(net::Server::Start(config,
                                        [this](const net::Frame& request) {
                                          return Handle(request);
                                        }),
                     "server");
  }
  ReadStack(const ReadStack&) = delete;
  ReadStack& operator=(const ReadStack&) = delete;

  net::Frame Handle(const net::Frame& request) {
    if (handler_seconds == nullptr) return router->Handle(request);
    const double start = NowSeconds();
    net::Frame response = router->Handle(request);
    handler_seconds->Observe(NowSeconds() - start);
    return response;
  }

  obs::Histogram* handler_seconds = nullptr;
  std::vector<Recommendation> recommendations;
  std::vector<std::string> payloads;
  obs::MetricsRegistry registry;
  exec::TaskProfiler profiler;
  ShardedDocumentStore documents{kShards};
  ShardedTelemetryStore telemetry{kShards};
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<net::Router> router;
  std::unique_ptr<net::Server> server;
};

struct PassOutcome {
  std::vector<double> setup_seconds;
  /// Every window of each phase, merged.
  LoadStats open;
  LoadStats saturation;
  /// Medians over windows.
  double p50_seconds = 0.0;
  double saturated_per_second = 0.0;
  Report layers;
};

PassOutcome RunPass(const std::vector<PoolTrace>& traces,
                    const std::vector<std::string>& keys,
                    const Options& options, const CpuLayout& layout,
                    bool traced, double budget, double untraced_p50,
                    WorkloadResult* result) {
  PassOutcome out;
  std::unique_ptr<ReadStack> stack;
  auto set_up = [&] {
    stack.reset();
    const double start = NowSeconds();
    stack = std::make_unique<ReadStack>(traces, keys, layout, traced);
    out.setup_seconds.push_back(NowSeconds() - start);
  };
  set_up();
  // Each pool must serve a document of its own.
  std::vector<std::string> sorted = stack->payloads;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    result->Fail("two pools serve the same document");
  }

  LoadConfig load;
  load.threads = layout.gen_threads;
  load.cpus = layout.client;
  load.busy_poll = true;
  load.seed = exec::DeriveTaskSeed(options.seed, 7);
  load.keys = &keys;
  load.zipf_s = kZipfS;

  LoadConfig open = load;
  open.connections = layout.connections;
  open.rate_per_second = options.smoke ? kOpenLoopRate / 4 : kOpenLoopRate;
  open.window = kOpenLoopWindow;
  LoadConfig closed = load;
  closed.connections = kSaturationConnections;
  closed.window = kSaturationWindow;

  stack->profiler.Clear();
  const uint64_t steals_before = stack->pool->tasks_stolen();
  const double region_start = NowSeconds();
  std::vector<LoadStats> open_windows, saturation_windows;
  for (size_t w = 0; w < kWindows; ++w) {
    if (w > 0 && !traced && !options.smoke) set_up();
    open.port = closed.port = stack->server->port();
    open.expected = closed.expected = &stack->payloads;
    open.seed = exec::DeriveTaskSeed(load.seed, 2 * w);
    open_windows.push_back(
        RunWindow(open, budget * kOpenLoopShare / kWindows));
    closed.seed = exec::DeriveTaskSeed(load.seed, 2 * w + 1);
    saturation_windows.push_back(
        RunWindow(closed, budget * (1.0 - kOpenLoopShare) / kWindows));
  }
  const double region_seconds = NowSeconds() - region_start;
  stack->pool->Wait();

  std::vector<double> p50s, rates;
  for (const LoadStats& w : open_windows) {
    p50s.push_back(Quantile(w.latency_seconds, 0.5));
  }
  for (const LoadStats& w : saturation_windows) {
    rates.push_back(static_cast<double>(w.ok) / w.seconds);
  }
  out.p50_seconds = Median(p50s);
  out.saturated_per_second = Median(rates);
  out.open = Merge(open_windows);
  out.saturation = Merge(saturation_windows);

  for (const LoadStats* stats : {&out.open, &out.saturation}) {
    result->attempted += stats->attempted;
    result->failed += stats->failed;
    for (const std::string& error : stats->errors) {
      result->Fail("GET load: " + error);
    }
    if (stats->mismatched != 0) {
      result->Fail(StrFormat("%llu responses differ from the seeded document",
                             static_cast<unsigned long long>(
                                 stats->mismatched)));
    }
  }

  if (traced) {
    double wait = 0.0, idle = 0.0;
    for (size_t i = 0; i < traces.size(); ++i) {
      auto metrics = EvaluateSchedule(
          traces[i].truth, stack->recommendations[i].pool_size_per_bin,
          BaselinePipeline().saa.pool);
      if (!metrics.ok()) {
        result->Fail("cannot score " + keys[i]);
        continue;
      }
      wait += metrics->avg_wait_seconds_capped;
      idle += metrics->idle_cluster_seconds;
    }
    LayerInputs in;
    in.registry = &stack->registry;
    in.profiler = &stack->profiler;
    in.gets = &out.open;
    in.region_seconds = region_seconds;
    in.exec_threads = layout.exec_threads;
    in.steals = stack->pool->tasks_stolen() - steals_before;
    in.trace_overhead_pct =
        untraced_p50 > 0.0 ? (out.p50_seconds / untraced_p50 - 1.0) * 100.0
                           : 0.0;
    in.avg_wait_seconds = wait / static_cast<double>(traces.size());
    in.idle_hours = idle / static_cast<double>(traces.size()) / 3600.0;
    out.layers = CollectLayers(in);
    if (!WriteTraceFile(options.trace_dir, "tasks.jsonl",
                        exec::TaskTimelineJsonl(stack->profiler))) {
      result->Fail("cannot write trace files to " + options.trace_dir);
    }
  }
  std::fprintf(stderr,
               "serve-read open %.0f req/s p50 %.3f ms; saturated %.0f req/s\n",
               static_cast<double>(out.open.attempted) / out.open.seconds,
               out.p50_seconds * 1e3, out.saturated_per_second);
  return out;
}

}  // namespace

WorkloadResult RunServeRead(const Options& options, const CpuLayout& layout) {
  WorkloadResult result;
  const size_t pools = options.smoke ? 512 : 4096;
  const std::vector<PoolTrace> traces = MakeTraces(options.seed, pools);
  std::vector<std::string> keys;
  for (size_t i = 0; i < pools; ++i) keys.push_back(StrFormat("pool-%04zu", i));
  if (!PinCurrentThread(layout.server)) result.Fail("cannot pin to server CPUs");
  const bool two_passes = TwoPasses(options);
  const double budget = PassBudget(options);
  const PassOutcome first =
      RunPass(traces, keys, options, layout,
              /*traced=*/options.trace && !two_passes, budget, 0.0, &result);
  result.end_to_end.Set("setup_s", Median(first.setup_seconds), "s");
  result.end_to_end.Set("rss_mb", PeakRssMb(), "MB");
  result.end_to_end.Set("latency_p50_ms", first.p50_seconds * 1e3, "ms");
  result.end_to_end.Set("throughput_per_s", first.saturated_per_second, "1/s");
  result.per_layer = two_passes ? RunPass(traces, keys, options, layout,
                                          /*traced=*/true, budget,
                                          first.p50_seconds, &result)
                                      .layers
                                : first.layers;
  return result;
}

}  // namespace ipool::bench::suite
