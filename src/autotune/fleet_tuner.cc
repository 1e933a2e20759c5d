#include "autotune/fleet_tuner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <utility>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/tuning_io.h"
#include "solver/saa_optimizer.h"
#include "tuning/auto_tuner.h"

namespace ipool::autotune {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative fit cost per model, seeding CostAwarePartition so one deep-model
/// group does not serialize a whole rung behind its chunk. Ratios only.
double ModelCostWeight(ModelKind kind) {
  switch (kind) {
    case ModelKind::kBaseline:
      return 1.0;
    case ModelKind::kSsa:
      return 24.0;
    case ModelKind::kSsaPlus:
      return 60.0;
    case ModelKind::kMwdn:
    case ModelKind::kTst:
    case ModelKind::kInceptionTime:
      return 600.0;
  }
  return 1.0;
}

/// FNV-1a over the series' time base and value bit patterns: the memo must
/// key on CONTENT, not object identity, so a re-tune over unchanged
/// telemetry hits and a slid window misses.
uint64_t HashSeries(const TimeSeries& series) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix_bytes = [&hash](const void* data, size_t len) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  const double start = series.start();
  const double interval = series.interval();
  mix_bytes(&start, sizeof(start));
  mix_bytes(&interval, sizeof(interval));
  if (!series.empty()) {
    mix_bytes(series.values().data(), series.size() * sizeof(double));
  }
  return hash;
}

/// Alphas are quantized to 1e-6 everywhere (grid, seeds, refinement
/// probes): SerializeTuning emits %.6f, so this is exactly the precision
/// that survives a document round-trip.
double QuantizeAlpha(double alpha) { return std::round(alpha * 1e6) / 1e6; }

double ScoreOf(const PoolMetrics& metrics, double idle_cost_weight) {
  return metrics.avg_wait_seconds_capped +
         idle_cost_weight * metrics.idle_cluster_seconds;
}

std::string MemoKey(const std::string& pool, const TuningCandidate& c,
                    size_t train_len, size_t eval_len, uint64_t content_hash) {
  return StrFormat("%s|%d|%zu|%.6f|%zu|%zu|%016llx", pool.c_str(),
                   static_cast<int>(c.model), c.window, c.alpha_prime,
                   train_len, eval_len,
                   static_cast<unsigned long long>(content_hash));
}

std::vector<std::string> SplitTokens(const std::string& name) {
  std::vector<std::string> tokens;
  size_t begin = 0;
  while (begin <= name.size()) {
    const size_t dash = name.find('-', begin);
    const std::string token = name.substr(
        begin, dash == std::string::npos ? std::string::npos : dash - begin);
    if (!token.empty()) tokens.push_back(token);
    if (dash == std::string::npos) break;
    begin = dash + 1;
  }
  return tokens;
}

bool SharesToken(const std::vector<std::string>& a,
                 const std::vector<std::string>& b) {
  for (const std::string& token : a) {
    if (std::find(b.begin(), b.end(), token) != b.end()) return true;
  }
  return false;
}

}  // namespace

std::string TuningCandidateName(const TuningCandidate& candidate) {
  return StrFormat("%s/a=%.6f/w=%zu",
                   ModelKindToString(candidate.model).c_str(),
                   candidate.alpha_prime, candidate.window);
}

Status FleetTunerConfig::Validate() const {
  if (models.empty()) {
    return Status::InvalidArgument("tuner needs at least one model");
  }
  if (alphas.empty()) {
    return Status::InvalidArgument("tuner needs at least one alpha");
  }
  for (double alpha : alphas) {
    if (!(alpha >= 0.0 && alpha <= 1.0)) {
      return Status::InvalidArgument("tuner alphas must be in [0, 1]");
    }
  }
  if (windows.empty()) {
    return Status::InvalidArgument("tuner needs at least one window");
  }
  for (size_t window : windows) {
    if (window < kMinTuningWindow || window > kMaxTuningWindow) {
      return Status::InvalidArgument(
          StrFormat("tuner window %zu outside [%zu, %zu]", window,
                    kMinTuningWindow, kMaxTuningWindow));
    }
  }
  if (rungs < 1 || rungs > 10) {
    return Status::InvalidArgument("rungs must be in [1, 10]");
  }
  if (eta < 2) return Status::InvalidArgument("eta must be >= 2");
  if (eval_bins < 8) return Status::InvalidArgument("eval_bins must be >= 8");
  if (min_train_bins < 8) {
    return Status::InvalidArgument("min_train_bins must be >= 8");
  }
  if (idle_cost_weight < 0.0) {
    return Status::InvalidArgument("idle_cost_weight must be >= 0");
  }
  if (hysteresis_pct < 0.0 || hysteresis_pct > 90.0) {
    return Status::InvalidArgument("hysteresis_pct must be in [0, 90]");
  }
  if (refine_steps > 32) {
    return Status::InvalidArgument("refine_steps must be <= 32");
  }
  if (target_wait_seconds < 0.0) {
    return Status::InvalidArgument("target_wait_seconds must be >= 0");
  }
  return forecast.Validate();
}

Result<std::unique_ptr<FleetTuner>> FleetTuner::Create(
    const FleetTunerConfig& config) {
  IPOOL_RETURN_NOT_OK(config.Validate());
  return std::unique_ptr<FleetTuner>(new FleetTuner(config));
}

FleetTuner::FleetTuner(const FleetTunerConfig& config) : config_(config) {
  if (obs::MetricsRegistry* metrics = config_.obs.metrics;
      metrics != nullptr) {
    // Pre-register every status series so a scrape can assert
    // {status="failed"} == 0 before any tune has failed.
    runs_switched_ =
        metrics->GetCounter("ipool_tune_runs_total", {{"status", "switched"}});
    runs_kept_ =
        metrics->GetCounter("ipool_tune_runs_total", {{"status", "kept"}});
    runs_failed_ =
        metrics->GetCounter("ipool_tune_runs_total", {{"status", "failed"}});
    evaluations_ = metrics->GetCounter("ipool_tune_evaluations_total");
    memo_hits_ = metrics->GetCounter("ipool_tune_memo_hits_total");
    pool_seconds_ = metrics->GetHistogram("ipool_tune_pool_seconds");
  }
}

void FleetTuner::InvalidateCaches() {
  memo_.clear();
}

std::vector<TuningCandidate> FleetTuner::BuildCandidates(
    const std::string& pool, const TuningCandidate* incumbent,
    size_t* incumbent_index) const {
  *incumbent_index = SIZE_MAX;
  std::vector<TuningCandidate> out;
  auto add = [&out](const TuningCandidate& candidate) -> size_t {
    for (size_t i = 0; i < out.size(); ++i) {
      if (out[i] == candidate) return i;
    }
    out.push_back(candidate);
    return out.size() - 1;
  };
  for (ModelKind model : config_.models) {
    // The baseline forecaster (gamma * max) ignores its window: enumerate
    // it once per alpha instead of once per (window, alpha).
    const size_t window_count =
        model == ModelKind::kBaseline ? 1 : config_.windows.size();
    for (size_t w = 0; w < window_count; ++w) {
      for (double alpha : config_.alphas) {
        add(TuningCandidate{model, QuantizeAlpha(alpha), config_.windows[w]});
      }
    }
  }
  if (incumbent != nullptr) *incumbent_index = add(*incumbent);
  // Warm-start seeds: the pool's own previous winner, then the previous
  // winners of region/node-size neighbors (pools sharing a '-'-separated
  // name token), in map order — deterministic.
  auto own = last_winner_.find(pool);
  if (own != last_winner_.end()) add(own->second);
  const std::vector<std::string> self_tokens = SplitTokens(pool);
  for (const auto& [other, winner] : last_winner_) {
    if (other == pool) continue;
    if (!SharesToken(self_tokens, SplitTokens(other))) continue;
    add(winner);
  }
  return out;
}

namespace {

/// One fit + forecast for a (model, window) group: everything the group's
/// alphas share. Fit errors (window too long for the rung's slice, solver
/// trouble) surface as a Status — the caller scores the whole group +inf.
Result<TimeSeries> BuildPlanning(const FleetTunerConfig& config,
                                 ModelKind model, size_t window,
                                 const TimeSeries& train,
                                 const TimeSeries& eval) {
  ForecastParams params = config.forecast;
  params.window = window;
  // Serial inside the group body (groups are the parallel unit) and
  // metrics-only obs: instruments are lock-free atomics, safe from any
  // thread.
  params.exec = {};
  params.obs = ObsContext{config.obs.metrics, nullptr};
  IPOOL_ASSIGN_OR_RETURN(std::unique_ptr<Forecaster> forecaster,
                         CreateForecaster(model, params));
  IPOOL_RETURN_NOT_OK(forecaster->Fit(train));
  IPOOL_ASSIGN_OR_RETURN(std::vector<double> forecast,
                         forecaster->Forecast(eval.size()));
  return TimeSeries(eval.start(), eval.interval(), std::move(forecast));
}

/// Scores `alphas` against the holdout on a fixed planning forecast.
/// Returns (score, avg capped wait) per alpha, in input order.
Result<std::vector<std::pair<double, double>>> ScoreAlphas(
    const FleetTunerConfig& config, const TimeSeries& planning,
    const TimeSeries& eval, const std::vector<double>& alphas) {
  IPOOL_ASSIGN_OR_RETURN(
      std::vector<ParetoPoint> points,
      SweepPareto(planning, eval, config.pool, alphas,
                  ObsContext{config.obs.metrics, nullptr}, {}));
  std::vector<std::pair<double, double>> out;
  out.reserve(points.size());
  for (const ParetoPoint& point : points) {
    out.emplace_back(ScoreOf(point.metrics, config.idle_cost_weight),
                     point.metrics.avg_wait_seconds_capped);
  }
  return out;
}

}  // namespace

PoolTuneResult FleetTuner::TunePool(const std::string& pool,
                                    const TimeSeries& history,
                                    const TuningCandidate* incumbent) {
  obs::ScopedSpan pool_span(config_.obs.tracer, "tune.pool");
  obs::ScopedTimer pool_timer(pool_seconds_);

  PoolTuneResult result;
  result.pool = pool;
  result.winner_score = kInf;
  result.incumbent_score = kInf;

  const size_t n = history.size();
  if (n < config_.eval_bins + config_.min_train_bins) {
    result.error = StrFormat(
        "history of %zu bins is shorter than eval %zu + min train %zu", n,
        config_.eval_bins, config_.min_train_bins);
    if (runs_failed_ != nullptr) runs_failed_->Add(1);
    return result;
  }

  // Bound the memo: a fleet of ever-changing pool names must not grow it
  // without limit. Clearing only costs the next tune a cold pass.
  if (memo_.size() > 65536) memo_.clear();

  const TimeSeries train_full = history.Slice(0, n - config_.eval_bins);
  const TimeSeries eval = history.Slice(n - config_.eval_bins, n);
  const uint64_t content_hash = HashSeries(history);

  size_t incumbent_index = SIZE_MAX;
  const std::vector<TuningCandidate> candidates =
      BuildCandidates(pool, incumbent, &incumbent_index);
  result.candidates = candidates.size();

  // (score, avg capped wait) per candidate from the most recent rung that
  // evaluated it; failures stay +inf.
  std::vector<std::pair<double, double>> scores(candidates.size(),
                                                {kInf, kInf});
  std::vector<size_t> alive(candidates.size());
  std::iota(alive.begin(), alive.end(), 0);

  const size_t min_train = std::min(config_.min_train_bins, train_full.size());
  for (size_t r = 0; r < config_.rungs; ++r) {
    // Fidelity doubles per rung: rung r trains on the trailing
    // train_full >> (rungs-1-r) bins, the final rung on everything.
    size_t train_len = train_full.size() >> (config_.rungs - 1 - r);
    train_len = std::clamp(train_len, min_train, train_full.size());
    const TimeSeries train =
        train_full.Slice(train_full.size() - train_len, train_full.size());

    // Group the rung's survivors by (model, window): one fit + forecast
    // per group, alphas scored together via SweepPareto. Memoized
    // candidates skip their group entirely.
    struct Group {
      ModelKind model = ModelKind::kBaseline;
      size_t window = 0;
      std::vector<size_t> need;         ///< candidate ids needing evaluation
      std::vector<double> need_alphas;  ///< their alphas, same order
    };
    std::vector<Group> groups;
    std::map<std::pair<int, size_t>, size_t> group_index;
    size_t rung_memo_hits = 0;
    for (size_t id : alive) {
      const TuningCandidate& candidate = candidates[id];
      if (config_.memoize) {
        auto hit = memo_.find(
            MemoKey(pool, candidate, train_len, eval.size(), content_hash));
        if (hit != memo_.end()) {
          scores[id] = hit->second;
          ++rung_memo_hits;
          continue;
        }
      }
      const auto key =
          std::make_pair(static_cast<int>(candidate.model), candidate.window);
      auto [it, inserted] = group_index.try_emplace(key, groups.size());
      if (inserted) {
        Group group;
        group.model = candidate.model;
        group.window = candidate.window;
        groups.push_back(std::move(group));
      }
      groups[it->second].need.push_back(id);
      groups[it->second].need_alphas.push_back(candidate.alpha_prime);
    }
    result.memo_hits += rung_memo_hits;
    if (memo_hits_ != nullptr && rung_memo_hits > 0) {
      memo_hits_->Add(rung_memo_hits);
    }

    if (!groups.empty()) {
      obs::ScopedSpan rung_span(config_.obs.tracer, "tune.rung");
      std::vector<Status> errors(groups.size(), Status::OK());
      std::vector<double> costs(groups.size(), 0.0);
      for (size_t g = 0; g < groups.size(); ++g) {
        costs[g] = ModelCostWeight(groups[g].model) *
                       static_cast<double>(train_len) +
                   static_cast<double>(groups[g].need.size() * eval.size());
      }
      exec::ParallelForOptions options;
      options.label = "tune.rung";
      options.costs = costs.data();
      exec::ParallelFor(
          config_.exec, 0, groups.size(),
          [&](size_t lo, size_t hi) {
            for (size_t g = lo; g < hi; ++g) {
              Group& group = groups[g];
              auto evaluated = [&]() -> Status {
                IPOOL_ASSIGN_OR_RETURN(
                    TimeSeries planning,
                    BuildPlanning(config_, group.model, group.window, train,
                                  eval));
                IPOOL_ASSIGN_OR_RETURN(
                    auto results,
                    ScoreAlphas(config_, planning, eval, group.need_alphas));
                for (size_t k = 0; k < group.need.size(); ++k) {
                  scores[group.need[k]] = results[k];
                }
                return Status::OK();
              }();
              if (!evaluated.ok()) errors[g] = evaluated;
            }
          },
          options);
      result.evaluations += groups.size();
      if (evaluations_ != nullptr) evaluations_->Add(groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        if (errors[g].ok()) continue;
        result.error = StrFormat("%s at rung %zu: %s",
                                 TuningCandidateName(
                                     candidates[groups[g].need.front()])
                                     .c_str(),
                                 r, errors[g].ToString().c_str());
      }
      if (config_.memoize) {
        // Failures memoize as +inf too: they are deterministic (geometry or
        // validation), and caching them keeps warm re-tunes bit-identical
        // to cold ones.
        for (const Group& group : groups) {
          for (size_t id : group.need) {
            memo_[MemoKey(pool, candidates[id], train_len, eval.size(),
                          content_hash)] = scores[id];
          }
        }
      }
    }

    // Successive-halving cut: keep the best ceil(alive/eta), ties broken
    // by candidate index; the incumbent survives every cut so the final
    // hysteresis comparison is against a full-fidelity incumbent score.
    if (r + 1 < config_.rungs) {
      std::vector<size_t> order = alive;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (scores[a].first != scores[b].first) {
          return scores[a].first < scores[b].first;
        }
        return a < b;
      });
      const size_t keep =
          std::max<size_t>(1, (alive.size() + config_.eta - 1) / config_.eta);
      if (order.size() > keep) order.resize(keep);
      if (incumbent_index != SIZE_MAX &&
          std::find(order.begin(), order.end(), incumbent_index) ==
              order.end()) {
        order.push_back(incumbent_index);
      }
      std::sort(order.begin(), order.end());
      alive = std::move(order);
    }
  }

  // Final-rung winner: best finite score, ties to the lowest index.
  size_t winner_id = SIZE_MAX;
  for (size_t id : alive) {
    if (!std::isfinite(scores[id].first)) continue;
    if (winner_id == SIZE_MAX || scores[id].first < scores[winner_id].first) {
      winner_id = id;
    }
  }
  if (incumbent_index != SIZE_MAX) {
    result.incumbent_score = scores[incumbent_index].first;
  }
  if (winner_id == SIZE_MAX) {
    // Degenerate tune: nothing scored. §7.6 posture — the caller keeps the
    // incumbent serving; we do not record a winner.
    if (result.error.empty()) result.error = "no candidate produced a score";
    if (runs_failed_ != nullptr) runs_failed_->Add(1);
    return result;
  }

  TuningCandidate winner = candidates[winner_id];
  double winner_score = scores[winner_id].first;
  double winner_wait = scores[winner_id].second;

  // §6 AutoTuner as the within-rung alpha refinement: walk alpha toward
  // the wait-time target on the winner's full-fidelity planning forecast
  // (one extra fit), keeping the best SCORING probe — refinement can
  // only improve the winner, never replace it with a worse config. An
  // incumbent that won its own re-tune is NOT re-refined: it is already a
  // refined point, and walking its alpha a little further on every tune
  // would keep beating the hysteresis margin — the serving config would
  // never reach a fixed point (endless republish churn on unchanged
  // telemetry). Refinement is for newly promoted grid candidates.
  const bool winner_is_incumbent =
      incumbent_index != SIZE_MAX && winner_id == incumbent_index;
  if (config_.refine_steps > 0 && !winner_is_incumbent) {
    obs::ScopedSpan refine_span(config_.obs.tracer, "tune.refine");
    auto planning = BuildPlanning(config_, winner.model, winner.window,
                                  train_full, eval);
    if (planning.ok()) {
      ++result.evaluations;
      if (evaluations_ != nullptr) evaluations_->Add(1);
      AutoTunerConfig tuner_config;
      tuner_config.target_wait_seconds = config_.target_wait_seconds;
      tuner_config.initial_alpha = std::clamp(winner.alpha_prime, 0.01, 0.99);
      tuner_config.window = std::max<size_t>(2, config_.refine_steps);
      auto tuner = AutoTuner::Create(tuner_config);
      if (tuner.ok()) {
        double alpha = tuner_config.initial_alpha;
        double wait = winner_wait;
        std::set<double> probed = {winner.alpha_prime};
        for (size_t step = 0; step < config_.refine_steps; ++step) {
          const double next = QuantizeAlpha(tuner->Observe(alpha, wait));
          if (!probed.insert(next).second) break;  // revisited: converged
          TuningCandidate probe = winner;
          probe.alpha_prime = next;
          const std::string key = MemoKey(pool, probe, train_full.size(),
                                          eval.size(), content_hash);
          std::pair<double, double> outcome{kInf, kInf};
          bool have = false;
          if (config_.memoize) {
            auto hit = memo_.find(key);
            if (hit != memo_.end()) {
              outcome = hit->second;
              have = true;
              ++result.memo_hits;
              if (memo_hits_ != nullptr) memo_hits_->Add(1);
            }
          }
          if (!have) {
            auto scored = ScoreAlphas(config_, *planning, eval, {next});
            if (!scored.ok()) {
              result.error = StrFormat("refine %s: %s",
                                       TuningCandidateName(probe).c_str(),
                                       scored.status().ToString().c_str());
              break;
            }
            outcome = scored->front();
            if (config_.memoize) memo_[key] = outcome;
          }
          alpha = next;
          wait = outcome.second;
          if (outcome.first < winner_score) {
            winner_score = outcome.first;
            winner_wait = outcome.second;
            winner.alpha_prime = next;
          }
        }
      }
    }
  }

  // Hysteresis: the challenger must beat the incumbent's holdout score by
  // hysteresis_pct percent, or the incumbent is kept. An incumbent that
  // failed its own eval (+inf) is stale and loses to any finite challenger.
  result.ok = true;
  result.winner_score = winner_score;
  if (incumbent != nullptr) {
    if (winner == *incumbent) {
      result.switched = false;
    } else if (!std::isfinite(result.incumbent_score)) {
      result.switched = true;  // stale incumbent demoted
    } else if (winner_score <
               result.incumbent_score *
                   (1.0 - config_.hysteresis_pct / 100.0)) {
      result.switched = true;
    } else {
      winner = *incumbent;
      winner_score = result.incumbent_score;
      result.winner_score = winner_score;
      result.switched = false;
    }
  } else {
    result.switched = true;  // first config for this pool
  }
  result.winner = winner;
  last_winner_[pool] = winner;
  if (result.switched) {
    if (runs_switched_ != nullptr) runs_switched_->Add(1);
  } else {
    if (runs_kept_ != nullptr) runs_kept_->Add(1);
  }
  return result;
}

}  // namespace ipool::autotune
