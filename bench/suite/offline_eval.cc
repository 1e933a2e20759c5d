// offline-eval: the paper's model comparison as batch jobs. The Table 1
// grid (6 datasets x SSA+/SSA/mWDN/TST/IncpT) and the quick Fig 5 2-step
// grid (baseline/SSA/SSA+/mWDN x 4 points) each run as one flat fan-out on
// an n-worker pool, repeated a fixed number of times. This is the only
// workload where the deep models (nn autograd, SIMD GEMM) and fan-out skew
// dominate; nothing here touches the request path.
//
// Chunks are cut by a fixed per-model cost table rather than by timings of
// this run, so the partition, and with it the schedule, is the same on
// every run.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/suite/layers.h"
#include "bench/suite/suite.h"
#include "exec/task_profiler.h"
#include "exec/thread_pool.h"
#include "forecast/forecaster.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tsdata/metrics.h"
#include "workload/demand_generator.h"

namespace ipool::bench::suite {

namespace {

/// Set-ups before each repetition of an untraced full pass (a few ms each);
/// setup_s is the median of all of them. Spread over the run, they sample
/// the host's CPUs in more of the states they drift through.
constexpr size_t kSetupsPerRep = 3;
/// One repetition (both fan-outs) on the 4-core reference host; a pass
/// makes budget / kRepSeconds of them, so every run does the same work.
constexpr double kRepSeconds = 2.9;
constexpr size_t kEvalBins = 120;
constexpr size_t kSpanCapacity = 1u << 16;

const std::vector<ModelKind>& Table1Models() {
  static const std::vector<ModelKind> kModels = {
      ModelKind::kSsaPlus, ModelKind::kSsa, ModelKind::kMwdn, ModelKind::kTst,
      ModelKind::kInceptionTime};
  return kModels;
}

const std::vector<ModelKind>& Fig5Models() {
  static const std::vector<ModelKind> kModels = {
      ModelKind::kBaseline, ModelKind::kSsa, ModelKind::kSsaPlus,
      ModelKind::kMwdn};
  return kModels;
}

/// Relative cost of one cell per model, measured once on a 4-core host
/// (units are irrelevant; only ratios steer the partition).
double CellCost(ModelKind model) {
  switch (model) {
    case ModelKind::kBaseline:
      return 1.0;
    case ModelKind::kSsa:
      return 2.0;
    case ModelKind::kSsaPlus:
      return 8.0;
    case ModelKind::kMwdn:
      return 30.0;
    case ModelKind::kTst:
      return 30.0;
    case ModelKind::kInceptionTime:
      return 40.0;
  }
  return 1.0;
}

struct Table1Dataset {
  TimeSeries train;
  std::vector<double> truth;
};

struct Inputs {
  std::vector<Table1Dataset> table1;
  TradeoffDataset fig5;
};

/// Six 1-day region x node-size traces, 80/20 split, scored on the first
/// kEvalBins test bins; the Fig 5 business-hours trace.
Inputs MakeInputs(uint64_t seed) {
  Inputs inputs;
  size_t index = 0;
  for (Region region : {Region::kWestUs2, Region::kEastUs2}) {
    for (NodeSize size : {NodeSize::kSmall, NodeSize::kMedium,
                          NodeSize::kLarge}) {
      WorkloadConfig config =
          RegionNodeProfile(region, size, exec::DeriveTaskSeed(seed, index++));
      config.duration_days = 1.0;
      auto [train, test] =
          CheckOk(DemandGenerator::Create(config), "workload")
              .GenerateBinned()
              .Split(0.8);
      inputs.table1.push_back(
          {std::move(train),
           std::vector<double>(test.values().begin(),
                               test.values().begin() + kEvalBins)});
    }
  }
  inputs.fig5 = MakeTradeoffDataset(exec::DeriveTaskSeed(seed, index));
  return inputs;
}

ForecastParams Table1Params(const ObsContext& obs) {
  ForecastParams params;
  params.window = 96;
  params.horizon = 48;
  params.epochs = 2;
  params.stride = 32;
  params.batch_size = 8;
  params.alpha_prime = 0.5;
  params.seed = 7;
  params.obs = obs;
  return params;
}

/// One cell of either grid. Table 1 cells fill (mae, rmse); Fig 5 cells
/// fill (avg capped wait, idle cluster-seconds).
struct Cell {
  bool table1 = true;
  size_t dataset = 0;
  ModelKind model = ModelKind::kSsa;
  double loss_alpha = 0.0;
  double saa_alpha = 0.0;
};

struct CellResult {
  double a = 0.0;
  double b = 0.0;
  double fit_seconds = 0.0;

  bool operator==(const CellResult& other) const {
    return a == other.a && b == other.b;
  }
};

/// The full grids. A smoke run keeps one Table 1 dataset (every model) and
/// the first point of the two cheap Fig 5 models.
std::vector<Cell> Table1Cells(bool smoke) {
  std::vector<Cell> cells;
  for (size_t d = 0; d < (smoke ? 1 : 6); ++d) {
    for (ModelKind model : Table1Models()) cells.push_back({true, d, model});
  }
  return cells;
}

std::vector<Cell> Fig5Cells(bool smoke) {
  std::vector<Cell> cells;
  for (ModelKind model : Fig5Models()) {
    if (smoke && model != ModelKind::kBaseline && model != ModelKind::kSsa) {
      continue;
    }
    for (const auto& [loss_alpha, saa_alpha] : TradeoffGridPoints(model)) {
      cells.push_back({false, 0, model, loss_alpha, saa_alpha});
      if (smoke) break;
    }
  }
  return cells;
}

CellResult RunCell(const Inputs& inputs, const Cell& cell,
                   const ObsContext& obs) {
  obs::ScopedSpan span(obs.tracer, "bench.cell");
  if (!cell.table1) {
    const CurvePoint point =
        EvalTradeoffPoint(cell.model, PipelineKind::k2Step, inputs.fig5.train,
                          inputs.fig5.eval, cell.loss_alpha, cell.saa_alpha);
    return {point.metrics.avg_wait_seconds_capped,
            point.metrics.idle_cluster_seconds, 0.0};
  }
  const Table1Dataset& data = inputs.table1[cell.dataset];
  auto forecaster =
      CheckOk(CreateForecaster(cell.model, Table1Params(obs)), "create");
  const double start = NowSeconds();
  CheckOk(forecaster->Fit(data.train), "fit");
  const double fit_seconds = NowSeconds() - start;
  auto prediction = CheckOk(forecaster->Forecast(data.truth.size()), "forecast");
  return {CheckOk(Mae(data.truth, prediction), "mae"),
          CheckOk(Rmse(data.truth, prediction), "rmse"), fit_seconds};
}

struct FanOut {
  std::vector<CellResult> results;
  /// Per cell: seconds from the fan-out's start until the cell finished.
  std::vector<double> done_seconds;
  double wall_seconds = 0.0;
};

FanOut RunFanOut(exec::ThreadPool* pool, const Inputs& inputs,
                 const std::vector<Cell>& cells, const ObsContext& obs) {
  FanOut out;
  out.results.resize(cells.size());
  out.done_seconds.resize(cells.size());
  std::vector<double> costs;
  for (const Cell& cell : cells) costs.push_back(CellCost(cell.model));
  const double start = NowSeconds();
  exec::ParallelFor(
      pool, 0, cells.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          out.results[i] = RunCell(inputs, cells[i], obs);
          out.done_seconds[i] = NowSeconds() - start;
        }
      },
      {.label = kOfflineLabel, .costs = costs.data()});
  out.wall_seconds = NowSeconds() - start;
  return out;
}

/// Per repetition of both fan-outs; the metrics are medians over them.
struct PassOutcome {
  std::vector<double> setup_seconds;
  /// Median cell completion time (from its fan-out's start).
  std::vector<double> p50_seconds;
  std::vector<double> cells_per_second;
  std::vector<double> rep_seconds;
  Report layers;
};

PassOutcome RunPass(const Options& options, const CpuLayout& layout,
                    bool traced, double budget, double untraced_wall,
                    WorkloadResult* result) {
  PassOutcome out;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<exec::ThreadPool> pool;
  auto set_up = [&](size_t count) {
    for (size_t k = 0; k < count; ++k) {
      pool.reset();
      const double start = NowSeconds();
      inputs = std::make_unique<Inputs>(MakeInputs(options.seed));
      pool = std::make_unique<exec::ThreadPool>(layout.allowed.size());
      out.setup_seconds.push_back(NowSeconds() - start);
    }
  };
  const bool spread_setups = !traced && !options.smoke;
  set_up(spread_setups ? kSetupsPerRep : 1);
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::Tracer> tracer;
  exec::TaskProfiler profiler;
  if (traced) {
    tracer = std::make_unique<obs::Tracer>(kSpanCapacity);
    pool->AttachProfiler(&profiler);
  }
  const ObsContext obs{traced ? &registry : nullptr, tracer.get()};

  const std::vector<Cell> table1 = Table1Cells(options.smoke);
  const std::vector<Cell> fig5 = Fig5Cells(options.smoke);
  std::vector<CellResult> first_table1, first_fig5;
  std::map<std::string, std::vector<double>> nn_fit;
  const uint64_t steals_before = pool->tasks_stolen();
  const double region_start = NowSeconds();
  const size_t reps = std::max<size_t>(
      1, static_cast<size_t>(std::llround(budget / kRepSeconds)));
  for (size_t rep = 0; rep < reps; ++rep) {
    if (rep > 0 && spread_setups) set_up(kSetupsPerRep);
    const FanOut t1 = RunFanOut(pool.get(), *inputs, table1, obs);
    const FanOut f5 = RunFanOut(pool.get(), *inputs, fig5, obs);
    std::vector<double> done = t1.done_seconds;
    done.insert(done.end(), f5.done_seconds.begin(), f5.done_seconds.end());
    const double wall = t1.wall_seconds + f5.wall_seconds;
    out.p50_seconds.push_back(Median(done));
    out.cells_per_second.push_back(static_cast<double>(done.size()) / wall);
    out.rep_seconds.push_back(wall);
    result->attempted += done.size();
    for (size_t i = 0; i < table1.size(); ++i) {
      const ModelKind model = table1[i].model;
      if (model == ModelKind::kMwdn || model == ModelKind::kTst ||
          model == ModelKind::kInceptionTime) {
        nn_fit[ModelKindToString(model)].push_back(t1.results[i].fit_seconds);
      }
    }
    if (rep == 0) {
      first_table1 = t1.results;
      first_fig5 = f5.results;
    } else if (t1.results != first_table1 || f5.results != first_fig5) {
      result->Fail("repeated fan-out changed its outputs");
    }
  }
  const double region_seconds = NowSeconds() - region_start;
  pool->Wait();

  // A serial recompute of one cell per model must match bit for bit.
  const size_t dataset = options.seed % (table1.size() / Table1Models().size());
  for (size_t i = 0; i < table1.size(); ++i) {
    if (table1[i].dataset == dataset &&
        !(RunCell(*inputs, table1[i], {}) == first_table1[i])) {
      result->Fail("Table 1 " + ModelKindToString(table1[i].model) +
                   " cell differs from its serial recompute");
    }
  }
  for (size_t i = 0; i < fig5.size(); ++i) {
    if ((i == 0 || fig5[i].model != fig5[i - 1].model) &&
        !(RunCell(*inputs, fig5[i], {}) == first_fig5[i])) {
      result->Fail("Fig 5 " + ModelKindToString(fig5[i].model) +
                   " point differs from its serial recompute");
    }
  }

  if (traced) {
    double wait = 0.0, idle = 0.0;
    for (const CellResult& r : first_fig5) {
      wait += r.a;
      idle += r.b;
    }
    LayerInputs in;
    in.registry = &registry;
    in.tracer = tracer.get();
    in.profiler = &profiler;
    in.region_seconds = region_seconds;
    in.exec_threads = pool->num_threads();
    in.steals = pool->tasks_stolen() - steals_before;
    in.nn_fit_seconds = nn_fit;
    in.trace_overhead_pct =
        untraced_wall > 0.0
            ? (Median(out.rep_seconds) / untraced_wall - 1.0) * 100.0
            : 0.0;
    in.avg_wait_seconds = wait / static_cast<double>(first_fig5.size());
    in.idle_hours = idle / static_cast<double>(first_fig5.size()) / 3600.0;
    out.layers = CollectLayers(in);
    if (!WriteTraceFile(options.trace_dir, "spans.jsonl",
                        obs::SpansJsonl(*tracer)) ||
        !WriteTraceFile(options.trace_dir, "tasks.jsonl",
                        exec::TaskTimelineJsonl(profiler))) {
      result->Fail("cannot write trace files to " + options.trace_dir);
    }
    pool->AttachProfiler(nullptr);
  }
  std::fprintf(stderr, "offline-eval reps %zu, median rep %.3f s\n",
               out.rep_seconds.size(), Median(out.rep_seconds));
  return out;
}

}  // namespace

WorkloadResult RunOfflineEval(const Options& options,
                              const CpuLayout& layout) {
  WorkloadResult result;
  const bool two_passes = TwoPasses(options);
  const double budget = PassBudget(options);
  const PassOutcome first =
      RunPass(options, layout, /*traced=*/options.trace && !two_passes,
              budget, 0.0, &result);
  result.end_to_end.Set("setup_s", Median(first.setup_seconds), "s");
  result.end_to_end.Set("rss_mb", PeakRssMb(), "MB");
  result.end_to_end.Set("latency_p50_ms", Median(first.p50_seconds) * 1e3,
                        "ms");
  result.end_to_end.Set("throughput_per_s", Median(first.cells_per_second),
                        "1/s");
  result.per_layer = two_passes ? RunPass(options, layout, /*traced=*/true,
                                          budget, Median(first.rep_seconds),
                                          &result)
                                      .layers
                                : first.layers;
  return result;
}

}  // namespace ipool::bench::suite
