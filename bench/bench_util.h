// Shared helpers for the benchmark harnesses that regenerate the paper's
// tables and figures. Each bench binary prints the series/rows of one
// table or figure plus a short "paper says / we measure" note; absolute
// numbers differ (synthetic traces, laptop substrate) but orderings and
// crossovers should match. See EXPERIMENTS.md.
#ifndef IPOOL_BENCH_BENCH_UTIL_H_
#define IPOOL_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "core/recommendation_engine.h"
#include "obs/metrics.h"
#include "solver/pool_model.h"
#include "solver/saa_optimizer.h"
#include "tsdata/metrics.h"
#include "tsdata/smoothing.h"
#include "tsdata/time_series.h"
#include "workload/demand_generator.h"

namespace ipool::bench {

/// Aborts with a message if a Status/Result is an error: benches have no
/// recovery story, a failed setup should be loud.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}
template <typename T>
T CheckOk(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Wall-clock timer for training-latency measurements (Fig 6, §7.4).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// True when the environment asks for a fast, reduced-scale pass
/// (IPOOL_QUICK=1). The printed note reports which mode ran.
inline bool QuickMode() {
  const char* env = std::getenv("IPOOL_QUICK");
  return env != nullptr && env[0] == '1';
}

inline void PrintHeader(const char* title, const char* paper_note) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title);
  std::printf("%s\n", paper_note);
  if (QuickMode()) std::printf("(IPOOL_QUICK=1: reduced scale)\n");
  std::printf("==================================================================\n");
}

/// The pool structure used throughout the evaluation section: 30 s bins,
/// tau = 90 s, 5 min STABLENESS.
inline PoolModelConfig EvalPool() {
  PoolModelConfig pool;
  pool.tau_bins = 3;
  pool.stableness_bins = 10;
  pool.min_pool_size = 0;
  pool.max_pool_size = 500;
  return pool;
}

/// A fitted-forecast evaluation split: fit on `train`, score the schedule
/// produced for the `eval` window against the actual `eval` demand.
struct TrainEvalSplit {
  TimeSeries train;
  TimeSeries eval;
};

inline TrainEvalSplit MakeSplit(const WorkloadConfig& config,
                                double train_fraction = 0.8) {
  auto generator = CheckOk(DemandGenerator::Create(config), "workload");
  TimeSeries all = generator.GenerateBinned();
  auto [train, eval] = all.Split(train_fraction);
  return {std::move(train), std::move(eval)};
}

/// Smallest static pool whose evaluated metric meets `predicate`; returns
/// (size, metrics) or size = -1 when none does.
template <typename Predicate>
std::pair<int64_t, PoolMetrics> SmallestStaticPool(
    const TimeSeries& demand, const PoolModelConfig& pool,
    Predicate predicate) {
  for (int64_t n = 0; n <= pool.max_pool_size; ++n) {
    std::vector<int64_t> schedule(demand.size(), n);
    auto metrics = EvaluateSchedule(demand, schedule, pool);
    if (metrics.ok() && predicate(*metrics)) return {n, *metrics};
  }
  return {-1, PoolMetrics{}};
}

/// One evaluated (loss knob, SAA knob) grid point of a Fig-5-style sweep.
struct CurvePoint {
  double loss_alpha;  // Eq 12 training knob (gamma for the baseline)
  double saa_alpha;   // Eq 16 optimizer knob
  PoolMetrics metrics;
};

/// Keeps only Pareto-dominant points: sorted by wait, strictly decreasing
/// idle.
std::vector<CurvePoint> ParetoFront(std::vector<CurvePoint> points);

/// The (Eq 12 loss alpha', SAA alpha') grid SweepTradeoffGrid evaluates for
/// `model` (baselines sweep gamma instead of alpha'; IPOOL_QUICK shrinks the
/// grid). Exposed so benches can flatten several sweeps into one fan-out.
std::vector<std::pair<double, double>> TradeoffGridPoints(ModelKind model);

/// Runs the full pipeline for one tradeoff grid point — fit on `train`,
/// recommend, score against `eval` — and returns the evaluated point.
CurvePoint EvalTradeoffPoint(ModelKind model, PipelineKind pipeline,
                             const TimeSeries& train, const TimeSeries& eval,
                             double loss_alpha, double saa_alpha);

/// Evaluates a grid of (Eq 12 loss alpha', SAA alpha') combinations for one
/// model and pipeline — the paper examines "various combinations of penalty
/// values" — scoring each emitted schedule against `eval`. Returns the
/// Pareto-dominant points.
std::vector<CurvePoint> SweepTradeoffGrid(ModelKind model,
                                          PipelineKind pipeline,
                                          const TimeSeries& train,
                                          const TimeSeries& eval);

/// Prints one line per obs histogram (count, p50/p95/p99, max in ms) plus
/// counters — the per-phase breakdown of a bench run whose configs were
/// wired with an ObsContext pointing at `registry`.
void PrintPhaseBreakdown(const obs::MetricsRegistry& registry);

/// The Fig-5 / Table-2 evaluation workload: a business-hours region with
/// strong top-of-hour scheduler surges, split into a training prefix and the
/// last `eval_bins` (evening ramp-down) for scoring.
struct TradeoffDataset {
  TimeSeries train;
  TimeSeries eval;
};
TradeoffDataset MakeTradeoffDataset(uint64_t seed);

}  // namespace ipool::bench

#endif  // IPOOL_BENCH_BENCH_UTIL_H_
