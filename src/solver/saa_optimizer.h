// The Sample Average Approximation (SAA) optimizer of §4.2: chooses the
// target pool size N(t) minimizing
//     alpha' * sum_t Delta+(t)  +  (1 - alpha') * sum_t Delta-(t)
// subject to Eqs 1-11 (re-hydration lag tau, pool-size bounds, STABLENESS
// blocks, ramp limit), where Delta+ is idle clusters and Delta- queued
// demand.
//
// Two interchangeable solution paths:
//  * OptimizeLp  — the faithful LP formulation solved with the dense
//    simplex (what the paper hands to a commercial solver);
//  * Optimize    — an exact dynamic program that exploits the LP's block
//    structure: with N constant per block, the objective separates into
//    per-block piecewise-linear convex costs over the integer pool size,
//    coupled only by the ramp constraint. The DP scans blocks left to right
//    with a suffix-min over the previous block's states.
// Tests assert both paths agree (the LP relaxation is tight at integer
// demand counts).
#ifndef IPOOL_SOLVER_SAA_OPTIMIZER_H_
#define IPOOL_SOLVER_SAA_OPTIMIZER_H_

#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"
#include "obs/obs_context.h"
#include "solver/pool_model.h"
#include "solver/simplex.h"
#include "tsdata/time_series.h"

namespace ipool {

struct SaaConfig {
  PoolModelConfig pool;
  /// Eq 16 trade-off knob in [0, 1]: weight on idle time (Delta+). Larger
  /// alpha' shrinks the pool (cheaper, slower); smaller alpha' grows it.
  double alpha_prime = 0.5;
  /// Observability sink (optional): every solve records an
  /// `ipool_solve_seconds` histogram sample, a "solve" span and (on the LP
  /// path) the simplex iteration count.
  ObsContext obs;

  Status Validate() const;
};

class SaaOptimizer {
 public:
  static Result<SaaOptimizer> Create(const SaaConfig& config);

  /// Exact block DP over integer pool sizes. O(bins + blocks * sizes).
  Result<PoolSchedule> Optimize(const TimeSeries& demand) const;

  /// §4.2's simplified periodic policy: one pool-size template per
  /// time-of-period slot (e.g. period_bins = 2880 for a daily template),
  /// optimal across all occurrences in the sample. period_bins must be a
  /// multiple of stableness_bins and no longer than the demand.
  Result<PoolSchedule> OptimizePeriodic(const TimeSeries& demand,
                                        size_t period_bins) const;

  /// LP formulation (Eqs 4-11) via two-phase simplex. Intended for small
  /// instances and cross-validation; cost grows quickly with bins.
  Result<PoolSchedule> OptimizeLp(const TimeSeries& demand) const;

  /// Builds the LP without solving it (exposed for tests/inspection).
  /// Variable layout: [Delta+ (T), Delta- (T), N_b (num blocks)].
  Result<LpProblem> BuildLp(const TimeSeries& demand) const;

  const SaaConfig& config() const { return config_; }

 private:
  explicit SaaOptimizer(const SaaConfig& config) : config_(config) {}

  /// w_t = D(t) - D(t - tau): demand arriving during the in-flight window
  /// attributed to the block supplying bin t's ready clusters.
  std::vector<double> InFlightDemand(const TimeSeries& demand) const;

  /// Same computation written into caller-provided storage (demand.size()
  /// doubles) so hot paths can point it at per-thread scratch.
  void InFlightDemandInto(const TimeSeries& demand, double* out) const;

  /// Shared exact DP over grouped in-flight demand in flattened form: group
  /// g's values are values[offsets[g], offsets[g+1]). Returns the optimal
  /// integer pool size per group (ramp-constrained between consecutive
  /// groups) and the objective value. All DP working storage lives in the
  /// calling thread's scratch arena, so sweep bodies solving thousands of
  /// candidates stop allocating after their first iteration.
  std::pair<std::vector<int64_t>, double> SolveGroupedDp(
      const double* values, const size_t* offsets, size_t num_groups) const;

  SaaConfig config_;
};

/// One point of the wait-time / idle-time trade-off curve (Fig 5).
struct ParetoPoint {
  double alpha_prime = 0.0;
  PoolMetrics metrics;
};

/// Solves the SAA program for each alpha' against `planning_demand` and
/// evaluates the schedule against `actual_demand` (they differ when planning
/// uses a forecast). Series must share bin count and width.
///
/// `obs` is threaded into every per-alpha solve. `exec` fans the alphas out
/// over the pool when one is wired in; the returned points are in alpha
/// order and bit-identical to the serial sweep.
Result<std::vector<ParetoPoint>> SweepPareto(
    const TimeSeries& planning_demand, const TimeSeries& actual_demand,
    const PoolModelConfig& pool_config, const std::vector<double>& alphas,
    const ObsContext& obs = {}, const exec::ExecContext& exec = {});

}  // namespace ipool

#endif  // IPOOL_SOLVER_SAA_OPTIMIZER_H_
