// Fleet auto-tuning: the paper's §6 closes the feedback loop on one SAA
// knob per pool; at fleet scale Intelligent Pooling also retunes every
// pool's FORECASTER choice and hyper-parameters continuously (ROADMAP item
// 5). A FleetTuner runs, per pool, a deterministic successive-halving
// search over the (model, alpha', window) space:
//
//   * the pool's recent binned telemetry is split into a training prefix
//     and a fixed evaluation holdout (the last `eval_bins` bins);
//   * rung r fits each surviving candidate on a suffix of the training
//     prefix whose length doubles per rung (train >> (rungs-1-r)) — cheap
//     low-fidelity rungs kill weak candidates before the full-length fit;
//   * candidates sharing a (model, window) pair are evaluated as one GROUP:
//     a single forecaster fit + forecast, then SweepPareto scores every
//     alpha' of the group against the holdout. Groups fan out over
//     exec::ParallelFor with cost-seeded chunking (deep models next to the
//     baseline stop serializing behind the hot chunk), and each group owns
//     its scratch + warm state, so the sweep is bit-identical at any thread
//     count;
//   * a candidate's score is the Fig-5 trade-off
//         avg_wait_seconds_capped + idle_cost_weight * idle_cluster_seconds
//     (lower is better); failed fits score +inf;
//   * each rung keeps the best ceil(alive/eta) candidates (ties broken by
//     candidate index — deterministic); the incumbent, when supplied, is
//     never cut before the final rung, so the hysteresis comparison below
//     is always against a fully-evaluated incumbent;
//   * after the final rung the §6 AutoTuner refines the winner's alpha'
//     within its (model, window) group: Observe(alpha, wait) walks alpha
//     toward the wait-time target, every probe is scored, and the best
//     scoring alpha seen wins (quantized to 1e-6 so the persisted document
//     round-trips exactly). An incumbent that wins its own re-tune is not
//     re-refined — re-tuning on unchanged telemetry is a fixed point, not
//     a slow alpha drift that churns the published config every cadence;
//   * hysteresis (§7.6 posture): the refined challenger replaces the
//     incumbent only when it improves the incumbent's score by
//     `hysteresis_pct` percent. A failed or degenerate tune (no candidate
//     produced a finite score) reports ok=false and the caller keeps the
//     incumbent serving. An incumbent whose own eval fails is stale and is
//     demoted by any finite challenger.
//
// Warm starts, two layers (both preserve bit-identical results — the
// determinism tests assert warm == cold):
//   * rung-score memoization keyed by (pool, candidate, rung geometry,
//     content hash of the telemetry slice): a re-tune over unchanged
//     telemetry skips the fit entirely;
//   * per-(pool, model, window, rung) SSA warm state (ForecastWarmState):
//     when the telemetry DID slide, SSA-family refits reuse the previous
//     Gram/basis (the PR-3 fast path) instead of refitting cold.
// Seeding: the candidate grid is augmented with the pool's own previous
// winner and the previous winners of region/node-size neighbor pools
// (pools sharing a '-'-separated name token), so a new pool starts its
// search at configurations that already won nearby.
//
// Thread-safety: TunePool mutates tuner-owned caches and must not be
// called concurrently (the live control plane calls it from the tick
// thread; the CLI from main). Internal fan-out over `exec` is safe.
#ifndef IPOOL_AUTOTUNE_FLEET_TUNER_H_
#define IPOOL_AUTOTUNE_FLEET_TUNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"
#include "forecast/forecaster.h"
#include "obs/obs_context.h"
#include "solver/pool_model.h"
#include "tsdata/time_series.h"

namespace ipool {
namespace obs {
class Counter;
class Histogram;
}  // namespace obs
}  // namespace ipool

namespace ipool::autotune {

/// One point of the search space. Equality is exact (alpha compared
/// bitwise) — candidates are deduplicated and persisted on this identity.
struct TuningCandidate {
  ModelKind model = ModelKind::kSsaPlus;
  double alpha_prime = 0.5;
  size_t window = 96;

  bool operator==(const TuningCandidate& other) const {
    return model == other.model && alpha_prime == other.alpha_prime &&
           window == other.window;
  }
  bool operator!=(const TuningCandidate& other) const {
    return !(*this == other);
  }
};

std::string TuningCandidateName(const TuningCandidate& candidate);

struct FleetTunerConfig {
  /// The search grid. The cross product (models x windows x alphas) forms
  /// rung 0, except the baseline model which ignores its window and is
  /// enumerated once per alpha. Seeded winners are appended.
  std::vector<ModelKind> models = {ModelKind::kBaseline, ModelKind::kSsa,
                                   ModelKind::kSsaPlus};
  std::vector<double> alphas = {0.1, 0.3, 0.5, 0.7, 0.9};
  std::vector<size_t> windows = {48, 96};

  /// Successive-halving shape: `rungs` fidelity levels, keep
  /// ceil(alive / eta) candidates per rung.
  size_t rungs = 3;
  size_t eta = 3;

  /// Holdout scored against real demand: the last `eval_bins` bins of the
  /// pool history. The remainder is the training prefix.
  size_t eval_bins = 120;
  /// The training suffix of the earliest rung must still hold this many
  /// bins (rung lengths are clamped up to it).
  size_t min_train_bins = 32;

  /// Score = avg_wait_seconds_capped + idle_cost_weight *
  /// idle_cluster_seconds. The default weighs one idle cluster-hour like
  /// ~0.7 s of average wait — wait-dominant, so a model that makes users
  /// wait loses to one that slightly overprovisions.
  double idle_cost_weight = 2e-4;

  /// Challenger must beat the incumbent's score by this margin (percent)
  /// to be published; below it the incumbent is kept (hysteresis).
  double hysteresis_pct = 5.0;

  /// Final-rung alpha' refinement via the §6 AutoTuner: number of
  /// Observe-and-probe steps (0 disables), walking alpha toward
  /// `target_wait_seconds`. Only the best SCORING probe is kept, so
  /// refinement can never worsen the winner.
  size_t refine_steps = 3;
  double target_wait_seconds = 1.0;

  /// Rung-score memoization across TunePool calls (see header comment).
  bool memoize = true;

  /// Pool structure the SAA solve runs against (same for every candidate).
  PoolModelConfig pool;
  /// Base forecaster hyper-parameters; candidate model/window/alpha
  /// override per evaluation. `ssa_warm`/`exec`/`obs` fields are managed by
  /// the tuner itself and ignored here.
  ForecastParams forecast;

  /// Fan-out for the per-rung group evaluations; null runs serially
  /// (bit-identical either way).
  exec::ExecContext exec;
  /// Metrics + spans (optional): ipool_tune_runs_total{status},
  /// ipool_tune_evaluations_total, ipool_tune_memo_hits_total,
  /// ipool_tune_pool_seconds, and tune.pool > tune.rung / tune.refine
  /// spans.
  ObsContext obs;

  Status Validate() const;
};

/// Outcome of one per-pool tune.
struct PoolTuneResult {
  std::string pool;
  /// True when at least one candidate produced a finite score; false is a
  /// failed/degenerate tune and the caller must keep the incumbent.
  bool ok = false;
  /// True when `winner` differs from the supplied incumbent (or no
  /// incumbent existed and a first config was chosen after one did not
  /// simply carry over). False means the incumbent was kept.
  bool switched = false;
  TuningCandidate winner;
  double winner_score = 0.0;
  /// Incumbent's holdout score; +inf when the incumbent failed its eval or
  /// none was supplied.
  double incumbent_score = 0.0;
  size_t candidates = 0;    ///< distinct candidates entering rung 0
  size_t evaluations = 0;   ///< forecaster-fit group evaluations actually run
  size_t memo_hits = 0;     ///< candidate scores served from the memo cache
  std::string error;        ///< last per-candidate error ("" when clean)
};

class FleetTuner {
 public:
  static Result<std::unique_ptr<FleetTuner>> Create(
      const FleetTunerConfig& config);

  /// Runs the full successive-halving search for one pool over `history`
  /// (binned demand, newest bin last; needs eval_bins + min_train_bins
  /// bins). `incumbent` is the currently-serving config or null. Not
  /// thread-safe (see header comment).
  PoolTuneResult TunePool(const std::string& pool, const TimeSeries& history,
                          const TuningCandidate* incumbent);

  /// Drops memoized rung scores and warm forecaster state (not the
  /// per-pool previous winners). Tests use it to force cold re-tunes.
  void InvalidateCaches();

  const FleetTunerConfig& config() const { return config_; }

 private:
  explicit FleetTuner(const FleetTunerConfig& config);

  /// Deterministic candidate set for one pool: grid first (model-major,
  /// window, alpha nested order), then incumbent, own previous winner and
  /// neighbor winners, deduplicated. Returns the incumbent's index in
  /// `incumbent_index` (SIZE_MAX when none supplied).
  std::vector<TuningCandidate> BuildCandidates(const std::string& pool,
                                               const TuningCandidate* incumbent,
                                               size_t* incumbent_index) const;

  FleetTunerConfig config_;

  /// Previous winner per pool (seeds the pool's own next tune and its
  /// neighbors' searches).
  std::map<std::string, TuningCandidate> last_winner_;

  /// Rung-score memo: key encodes pool, candidate, rung geometry and a
  /// content hash of the history; value is (score, avg capped wait).
  std::map<std::string, std::pair<double, double>> memo_;

  /// Warm forecaster state per (pool, model, window, train length). Map
  /// node pointers are stable; nodes are created serially before each
  /// rung's fan-out so parallel bodies only touch their own entry.
  std::map<std::string, ForecastWarmState> warm_;

  /// Instrument handles fetched once at Create (null when obs is unwired).
  obs::Counter* runs_switched_ = nullptr;
  obs::Counter* runs_kept_ = nullptr;
  obs::Counter* runs_failed_ = nullptr;
  obs::Counter* evaluations_ = nullptr;
  obs::Counter* memo_hits_ = nullptr;
  obs::Histogram* pool_seconds_ = nullptr;
};

}  // namespace ipool::autotune

#endif  // IPOOL_AUTOTUNE_FLEET_TUNER_H_
