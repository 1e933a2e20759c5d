// §4.2 / §7.4: end-to-end latency micro-benchmarks (google-benchmark). The
// paper requires the whole train-infer-optimize loop to finish in seconds so
// it can rerun every few minutes; these benches verify each stage's cost and
// the DP-vs-LP solver gap on this implementation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/recommendation_engine.h"
#include "exec/thread_pool.h"
#include "forecast/forecaster.h"
#include "forecast/ssa.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/simd_kernels.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "solver/saa_optimizer.h"
#include "tsdata/smoothing.h"
#include "workload/demand_generator.h"

namespace {

using namespace ipool;

TimeSeries MakeDemand(size_t bins, uint64_t seed = 17) {
  WorkloadConfig config;
  config.duration_days = static_cast<double>(bins) / 2880.0;
  config.base_rate_per_minute = 6.0;
  config.hourly_spike_requests = 10.0;
  config.seed = seed;
  auto generator = DemandGenerator::Create(config);
  return generator->GenerateBinned();
}

void BM_SaaOptimizerDp(benchmark::State& state) {
  TimeSeries demand = MakeDemand(static_cast<size_t>(state.range(0)));
  SaaConfig config;
  config.pool.tau_bins = 3;
  config.pool.stableness_bins = 10;
  config.pool.max_pool_size = 200;
  config.alpha_prime = 0.3;
  auto optimizer = SaaOptimizer::Create(config);
  for (auto _ : state) {
    auto schedule = optimizer->Optimize(demand);
    benchmark::DoNotOptimize(schedule);
  }
  state.SetLabel("exact block DP");
}
BENCHMARK(BM_SaaOptimizerDp)->Arg(120)->Arg(1440)->Arg(2880)->Arg(20160)
    ->Unit(benchmark::kMillisecond);

void BM_SaaOptimizerLp(benchmark::State& state) {
  TimeSeries demand = MakeDemand(static_cast<size_t>(state.range(0)));
  SaaConfig config;
  config.pool.tau_bins = 3;
  config.pool.stableness_bins = 10;
  config.pool.max_pool_size = 200;
  config.alpha_prime = 0.3;
  auto optimizer = SaaOptimizer::Create(config);
  for (auto _ : state) {
    auto schedule = optimizer->OptimizeLp(demand);
    benchmark::DoNotOptimize(schedule);
  }
  state.SetLabel("two-phase simplex on Eqs 4-11");
}
BENCHMARK(BM_SaaOptimizerLp)->Arg(60)->Arg(120)->Unit(benchmark::kMillisecond);

// ---- SIMD microkernels ----------------------------------------------------
// Scalar vs dispatched (AVX2+FMA where the CPU has it) cost of the two
// primitives every nn/linalg/SSA inner loop is built from. Arg 0 is the
// vector length (96 = one SSA window row, 1024 = a deep-model GEMM tile);
// arg 1 == 1 pins the scalar reference via ScopedForceIsa. Results are
// bit-identical between the two rows by the simd_kernels.h contract — these
// benches measure only the speed gap.

std::vector<double> KernelOperand(size_t n, double phase) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.37 * static_cast<double>(i) + phase);
  }
  return v;
}

void BM_SimdDot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> a = KernelOperand(n, 0.0);
  const std::vector<double> b = KernelOperand(n, 1.0);
  std::optional<simd::ScopedForceIsa> force;
  if (state.range(1) != 0) force.emplace(simd::IsaLevel::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::Dot(a.data(), b.data(), n));
  }
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimdDot)
    ->Args({96, 1})->Args({96, 0})->Args({1024, 1})->Args({1024, 0})
    ->Unit(benchmark::kNanosecond);

void BM_SimdMulAdd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> src = KernelOperand(n, 0.0);
  std::vector<double> dst = KernelOperand(n, 2.0);
  std::optional<simd::ScopedForceIsa> force;
  if (state.range(1) != 0) force.emplace(simd::IsaLevel::kScalar);
  for (auto _ : state) {
    simd::MulAdd(dst.data(), src.data(), 1e-3, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimdMulAdd)
    ->Args({96, 1})->Args({96, 0})->Args({1024, 1})->Args({1024, 0})
    ->Unit(benchmark::kNanosecond);

// Hankel-free Gram of the SSA trajectory matrix via the sliding-diagonal
// identity: O(L*K + L^2) time, O(L^2) space, the L x K Hankel never exists.
// This is phase 1 of every SSA fit on the control loop's hot path.
void BM_HankelGram(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  TimeSeries history = MakeDemand(2880);
  const std::vector<double>& series = history.values();
  for (auto _ : state) {
    auto gram = HankelGram(series, window);
    benchmark::DoNotOptimize(gram);
  }
  state.SetLabel("sliding-diagonal identity, no L x K materialization");
}
BENCHMARK(BM_HankelGram)->Arg(96)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// The same build pinned to the scalar reference kernel: the gap to
// BM_HankelGram is the SIMD win on the first-row Dot (the O(window * K)
// term); the O(window^2) slide recurrence is scalar either way.
void BM_HankelGramScalar(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  TimeSeries history = MakeDemand(2880);
  const std::vector<double>& series = history.values();
  simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
  for (auto _ : state) {
    auto gram = HankelGram(series, window);
    benchmark::DoNotOptimize(gram);
  }
  state.SetLabel("forced-scalar reference build");
}
BENCHMARK(BM_HankelGramScalar)->Arg(96)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

namespace {
// An SSA-style Gram: a strong diurnal + surge demand window, normalized the
// way SSA training normalizes it.
Matrix SsaStyleGram(size_t window) {
  TimeSeries history = MakeDemand(2880, /*seed=*/29);
  std::vector<double> y = history.values();
  const double scale = std::max(1.0, history.Max());
  for (double& v : y) v /= scale;
  auto gram = HankelGram(y, window);
  return std::move(gram).value();
}
}  // namespace

// SSA's eigensolve: full dense Jacobi, O(L^3) per sweep, all L pairs.
void BM_TopEigenJacobi(benchmark::State& state) {
  const Matrix gram = SsaStyleGram(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto eig = SymmetricEigen(gram);
    benchmark::DoNotOptimize(eig);
  }
  state.SetLabel("dense Jacobi, all pairs");
}
BENCHMARK(BM_TopEigenJacobi)->Arg(96)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SsaFit(benchmark::State& state) {
  TimeSeries history = MakeDemand(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    SsaForecaster::Options options;
    options.window = 96;
    SsaForecaster ssa(options);
    benchmark::DoNotOptimize(ssa.Fit(history));
  }
}
BENCHMARK(BM_SsaFit)->Arg(720)->Arg(2880)->Unit(benchmark::kMillisecond);

void BM_SsaPlusFitAndForecast(benchmark::State& state) {
  TimeSeries history = MakeDemand(static_cast<size_t>(state.range(0)));
  ForecastParams params;
  params.window = 96;
  params.horizon = 48;
  for (auto _ : state) {
    auto forecaster = CreateForecaster(ModelKind::kSsaPlus, params);
    benchmark::DoNotOptimize((*forecaster)->Fit(history));
    auto forecast = (*forecaster)->Forecast(120);
    benchmark::DoNotOptimize(forecast);
  }
  state.SetLabel("deployed model: full retrain + 1h forecast");
}
BENCHMARK(BM_SsaPlusFitAndForecast)->Arg(720)->Arg(2880)
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndPipeline(benchmark::State& state) {
  TimeSeries history = MakeDemand(2880);
  PipelineConfig config;
  config.model = ModelKind::kSsaPlus;
  config.forecast.window = 96;
  config.forecast.horizon = 48;
  config.saa.alpha_prime = 0.3;
  config.recommendation_bins = 120;
  auto engine = RecommendationEngine::Create(config);
  for (auto _ : state) {
    auto rec = engine->Run(history);
    benchmark::DoNotOptimize(rec);
  }
  state.SetLabel("train + infer + optimize, 1-day history (paper: seconds)");
}
BENCHMARK(BM_EndToEndPipeline)->Unit(benchmark::kMillisecond);

// Cost of an instrumentation point when no ObsContext is wired: every hot
// path pays exactly this (a null check per span/timer/counter site).
void BM_ObsDisabled(benchmark::State& state) {
  ObsContext ctx;  // default: disabled
  for (auto _ : state) {
    obs::ScopedSpan span(ctx.tracer, "noop");
    obs::ScopedTimer timer(nullptr);
    benchmark::DoNotOptimize(ctx);
  }
  state.SetLabel("null span + null timer (hot-path overhead when off)");
}
BENCHMARK(BM_ObsDisabled)->Unit(benchmark::kNanosecond);

// Same instrumentation point with a live registry + tracer: span begin/end,
// histogram observe, counter increment (handles pre-fetched, as hot paths
// should).
void BM_ObsEnabled(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::Histogram* latency = registry.GetHistogram("bench_phase_seconds");
  obs::Counter* runs = registry.GetCounter("bench_runs_total");
  for (auto _ : state) {
    obs::ScopedSpan span(&tracer, "phase");
    obs::ScopedTimer timer(latency);
    runs->Add(1);
    benchmark::DoNotOptimize(registry);
  }
  state.SetLabel("span + histogram timer + counter (pre-fetched handles)");
}
BENCHMARK(BM_ObsEnabled)->Unit(benchmark::kNanosecond);

void BM_MaxFilter(benchmark::State& state) {
  TimeSeries demand = MakeDemand(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    TimeSeries filtered = MaxFilter(demand, 20);
    benchmark::DoNotOptimize(filtered);
  }
}
BENCHMARK(BM_MaxFilter)->Arg(2880)->Arg(40320)->Unit(benchmark::kMicrosecond);

// Dispatch overhead of an empty-body ParallelFor over a pool of
// `state.range(0)` threads: group setup, chunk claiming and the final
// wake-up, with no useful work to amortize them. This is the fixed cost a
// hot path pays for fanning out — the grain heuristics in nn/linalg exist
// to keep real work far above it. Thread count 0 measures the serial-inline
// short-circuit (no pool), the floor every ParallelFor call site pays when
// parallelism is off.
void BM_ParallelForDispatch(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<exec::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<exec::ThreadPool>(threads);
  const exec::ExecContext exec{pool.get()};
  for (auto _ : state) {
    exec::ParallelFor(exec, 0, 1024, [](size_t lo, size_t hi) {
      // Empty body: measure dispatch, not work.
      benchmark::DoNotOptimize(lo);
      benchmark::DoNotOptimize(hi);
    });
  }
  state.SetLabel(threads == 0 ? "serial-inline short-circuit"
                              : "empty-body fan-out + join");
}
BENCHMARK(BM_ParallelForDispatch)->Arg(0)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
