// ipool_cli: operator command line for the Intelligent Pooling library.
//
//   ipool_cli generate  --profile west-small|east-medium|...|spiky
//                       [--days 2] [--seed 7] --out demand.csv
//   ipool_cli recommend --demand demand.csv [--model ssa+] [--alpha 0.3]
//                       [--loss-alpha 0.9] [--bins 120] [--smooth-sf 0]
//                       [--threads 0] --out schedule.csv
//   ipool_cli evaluate  --demand demand.csv --schedule schedule.csv
//                       [--tau-bins 3]
//   ipool_cli simulate  --demand demand.csv --schedule schedule.csv
//                       [--latency 90] [--latency-cv 0.2] [--seed 1]
//   ipool_cli sweep     --demand demand.csv [--tau-bins 3] [--threads 0]
//   ipool_cli tune      --demand demand.csv | --profile regime-shift
//                       [--days 10] [--seed 7] [--pool NAME]
//                       [--models baseline,ssa,ssa+] [--alphas 0.1,...]
//                       [--windows 48,96] [--rungs 3] [--eta 3]
//                       [--eval-bins 120] [--min-train 32]
//                       [--hysteresis 5] [--target-wait 1]
//                       [--refine-steps 3] [--idle-weight 2e-4]
//                       [--threads 0] [--repeat 1]
//   ipool_cli loop      --demand demand.csv | --profile east-medium
//                       [--days 2] [--seed 7] [--model ssa+]
//                       [--run-interval 1800] [--latency 90] [--threads 0]
//   ipool_cli serve     [--port 7070] [--threads 4] [--drain-timeout 5]
//                       [--profile east-medium | --demand demand.csv]
//                       [--days 2] [--seed 7] [--model ssa+] [--key NAME]
//                       [--max-seconds 0] [--max-inflight 64]
//                       [--loop-interval 0] [--min-history 64]
//                       [--history-bins 480] [--shards 16]
//                       [--tune-interval 0] [--tune-models baseline,ssa,ssa+]
//                       [--tune-alphas ...] [--tune-windows ...]
//                       [--tune-eval-bins 120] [--tune-min-train 32]
//                       [--tune-hysteresis 5]
//   ipool_cli get       --port 7070 [--key NAME] [--trace 1] [--raw 1]
//   ipool_cli publish   --port 7070 --metric demand.POOL [--start 0]
//                       [--interval 30] [--count N --value V |
//                       --values v0,v1,...]
//   ipool_cli trace     --port 7070 [--limit 256]
//
// `serve` hosts the control plane over loopback TCP (the ipool::net framed
// binary protocol): it fits a recommendation for the given profile/demand,
// publishes it in the document store under --key (default: the profile
// name), and answers GetRecommendation / PublishTelemetry / Health /
// Metrics / Trace until SIGINT/SIGTERM (or --max-seconds), then drains
// gracefully for --drain-timeout seconds. `--threads N` sizes the handler
// pool (0 = handle on the event loop). The server keeps a Tracer: every
// request's spans are recorded under the client-stamped trace id.
//
// `serve --loop-interval T` (T > 0) additionally runs the in-process
// streaming control plane (src/live): every tick it discovers pools from
// `demand.<pool>` telemetry metrics, refits each pool's forecaster,
// solves, and atomically republishes the fleet's recommendation documents
// — PublishTelemetry traffic continuously reshapes what GetRecommendation
// returns. `publish` injects synthetic telemetry into a running server
// (the spike half of the spike -> resize demo; see README).
//
// `serve --tune-interval T` (T > 0, needs --loop-interval) additionally
// runs the fleet auto-tuner inside the live loop: each pool's (model,
// alpha', window) search re-runs every T seconds over its telemetry, the
// winning config is published as document `tuning.<pool>` and the next
// tick serves with it. `tune` runs the same search once, offline, over a
// demand trace — the operator's what-would-the-tuner-pick probe; with
// --repeat > 1 it re-tunes over the unchanged trace and reports the memo
// warm-hit speedup.
//
// `get --trace 1` runs the fetch with client-side tracing, then pulls the
// server's recent spans and prints both halves of the request's trace —
// the cross-process view of one GetRecommendation. `trace` dumps the
// server's recent spans (JSONL) without issuing any other request.
//
// Unknown flags are rejected with an error naming the command's accepted
// flags — a typo must not silently fall back to a default. For the same
// reason a numeric flag must parse whole, and an integer-valued one (a
// count, size, seed or port) must be a whole number in range: "abc", "7.9",
// "-1" and "1e30" are errors, never a truncated or wrapped value.
//
// `--threads N` (recommend, sweep, loop; default 0 = serial) runs the
// command's independent work — deep-model training kernels, per-alpha'
// sweep solves — on an N-thread pool. Results are bit-identical to the
// serial run (the determinism contract of DESIGN.md).
//
// `recommend` fits on the whole input and emits the next `--bins` bins;
// `evaluate` scores a schedule with the analytical queueing model (§4.1);
// `simulate` replays the demand through the event-driven pool simulator;
// `sweep` prints the alpha' Pareto frontier of SAA-on-history;
// `loop` replays the trace through the live control plane on a virtual
// clock (telemetry -> periodic ticks with the §7.5 guardrail -> pooling
// reads with §7.6 fallbacks -> simulator) end to end.
//
// Observability (recommend, simulate and loop): `--metrics-out FILE`
// writes Prometheus text exposition, `--trace-out FILE` writes one JSON
// span per line, `--obs-summary 1` prints a human-readable latency table.
// FILE may be "-" for stdout.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autotune/fleet_tuner.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/recommendation_engine.h"
#include "live/live_control_plane.h"
#include "live/replay.h"
#include "exec/thread_pool.h"
#include "forecast/forecaster.h"
#include "net/client.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/sharded_document_store.h"
#include "service/sharded_telemetry_store.h"
#include "service/monitoring.h"
#include "service/recommendation_io.h"
#include "service/tuning_io.h"
#include "sim/pool_simulator.h"
#include "solver/saa_optimizer.h"
#include "tsdata/csv.h"
#include "tsdata/metrics.h"
#include "workload/demand_generator.h"

namespace {

using namespace ipool;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "ipool_cli: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T DieOnError(Result<T> result, const char* what) {
  if (!result.ok()) {
    Die(std::string(what) + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

// Every flag a command accepts; ParseFlags rejects anything else so a
// typo'd flag errors out instead of silently meaning its default.
const std::map<std::string, std::vector<std::string>>& CommandFlags() {
  static const std::map<std::string, std::vector<std::string>> kFlags = {
      {"generate", {"profile", "days", "seed", "out"}},
      {"recommend",
       {"demand", "model", "window", "horizon", "loss-alpha", "alpha",
        "tau-bins", "max-pool", "bins", "smooth-sf", "threads", "out",
        "metrics-out", "trace-out", "obs-summary"}},
      {"evaluate", {"demand", "schedule", "tau-bins"}},
      {"simulate",
       {"demand", "schedule", "latency", "latency-cv", "seed", "metrics-out",
        "trace-out", "obs-summary"}},
      {"sweep", {"demand", "tau-bins", "max-pool", "threads"}},
      {"tune",
       {"demand", "profile", "days", "seed", "pool", "models", "alphas",
        "windows", "rungs", "eta", "eval-bins", "min-train", "hysteresis",
        "target-wait", "refine-steps", "idle-weight", "tau-bins", "max-pool",
        "threads", "repeat"}},
      {"loop",
       {"demand", "profile", "days", "seed", "model", "window", "horizon",
        "loss-alpha", "alpha", "tau-bins", "max-pool", "history-bins",
        "run-interval", "latency", "latency-cv", "threads", "metrics-out",
        "trace-out", "obs-summary"}},
      {"serve",
       {"port", "threads", "drain-timeout", "profile", "demand", "days",
        "seed", "model", "key", "max-seconds", "max-inflight", "window",
        "horizon", "loss-alpha", "alpha", "tau-bins", "max-pool", "bins",
        "loop-interval", "min-history", "history-bins", "shards",
        "tune-interval", "tune-models", "tune-alphas", "tune-windows",
        "tune-eval-bins", "tune-min-train", "tune-hysteresis"}},
      {"get", {"host", "port", "key", "timeout", "retries", "trace", "raw"}},
      {"publish",
       {"host", "port", "metric", "start", "interval", "count", "value",
        "values", "timeout", "retries"}},
      {"scrape", {"host", "port", "timeout", "retries"}},
      {"trace", {"host", "port", "timeout", "retries", "limit"}},
  };
  return kFlags;
}

// "--key value" pairs into a map; bare tokens and flags the command does
// not define are rejected.
std::map<std::string, std::string> ParseFlags(int argc, char** argv, int begin,
                                              const std::string& command) {
  const auto allowed_it = CommandFlags().find(command);
  if (allowed_it == CommandFlags().end()) Die("unknown command: " + command);
  const std::vector<std::string>& allowed = allowed_it->second;
  std::map<std::string, std::string> flags;
  for (int i = begin; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Die("unexpected argument: " + key);
    std::string name = key.substr(2);
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      Die("unknown flag --" + name + " for command '" + command +
          "' (accepted: --" + Join(allowed, ", --") + ")");
    }
    if (i + 1 >= argc) Die("flag needs a value: " + key);
    flags[std::move(name)] = argv[++i];
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

double NumFlag(const std::map<std::string, std::string>& flags,
               const std::string& key, double fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  return DieOnError(ParseDouble(it->second), ("--" + key).c_str());
}

// The one parser for integer-valued input: a whole number in [0, max],
// checked before any cast so nothing is truncated, wrapped or undefined.
uint64_t ParseCount(const std::string& token, const std::string& what,
                    uint64_t max) {
  const int64_t value = DieOnError(ParseInt64(token), what.c_str());
  if (value < 0 || static_cast<uint64_t>(value) > max) {
    Die(StrFormat("%s must be in [0, %llu], got %s", what.c_str(),
                  static_cast<unsigned long long>(max), token.c_str()));
  }
  return static_cast<uint64_t>(value);
}

uint64_t CountFlag(const std::map<std::string, std::string>& flags,
                   const std::string& key, uint64_t fallback,
                   uint64_t max = std::numeric_limits<int64_t>::max()) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : ParseCount(it->second, "--" + key, max);
}

std::string RequiredFlag(const std::map<std::string, std::string>& flags,
                         const std::string& key) {
  auto it = flags.find(key);
  if (it == flags.end()) Die("missing required flag --" + key);
  return it->second;
}

WorkloadConfig ProfileByName(const std::string& name, uint64_t seed) {
  if (name == "spiky") return SpikyRegionProfile(seed);
  if (name == "regime-shift") return RegimeShiftProfile(seed);
  const auto dash = name.find('-');
  if (dash != std::string::npos) {
    const std::string region_name = name.substr(0, dash);
    const std::string size_name = name.substr(dash + 1);
    Region region;
    if (region_name == "west") {
      region = Region::kWestUs2;
    } else if (region_name == "east") {
      region = Region::kEastUs2;
    } else {
      Die("unknown region in profile: " + name);
    }
    NodeSize size;
    if (size_name == "small") {
      size = NodeSize::kSmall;
    } else if (size_name == "medium") {
      size = NodeSize::kMedium;
    } else if (size_name == "large") {
      size = NodeSize::kLarge;
    } else {
      Die("unknown node size in profile: " + name);
    }
    return RegionNodeProfile(region, size, seed);
  }
  Die("unknown profile '" + name +
      "' (use west-small, east-medium, ..., spiky, or regime-shift)");
}

ModelKind ModelByName(const std::string& name) {
  if (name == "baseline") return ModelKind::kBaseline;
  if (name == "ssa") return ModelKind::kSsa;
  if (name == "ssa+") return ModelKind::kSsaPlus;
  if (name == "mwdn") return ModelKind::kMwdn;
  if (name == "tst") return ModelKind::kTst;
  if (name == "incpt") return ModelKind::kInceptionTime;
  Die("unknown model '" + name +
      "' (use baseline, ssa, ssa+, mwdn, tst, incpt)");
}

// --threads N: the command's shared thread pool, null (serial) by default.
std::unique_ptr<exec::ThreadPool> PoolFromFlags(
    const std::map<std::string, std::string>& flags) {
  const size_t n = CountFlag(flags, "threads", 0);
  return n > 0 ? std::make_unique<exec::ThreadPool>(n) : nullptr;
}

// Metrics registry + tracer pair owned by a command, plus flag-driven
// export: --metrics-out (Prometheus text), --trace-out (span JSONL),
// --obs-summary 1 (human-readable table). "-" writes to stdout.
struct ObsBundle {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;

  ObsContext Context() { return ObsContext{&registry, &tracer}; }
};

void WriteTextTo(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot open for writing: " + path);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

void ExportObs(const std::map<std::string, std::string>& flags,
               ObsBundle& obs) {
  if (auto it = flags.find("metrics-out"); it != flags.end()) {
    WriteTextTo(it->second, obs::PrometheusText(obs.registry));
  }
  if (auto it = flags.find("trace-out"); it != flags.end()) {
    WriteTextTo(it->second, obs::SpansJsonl(obs.tracer));
  }
  if (NumFlag(flags, "obs-summary", 0) != 0) {
    std::fputs(obs::HumanSummary(obs.registry, &obs.tracer).c_str(), stdout);
  }
}

// Scatters binned demand counts into arrival-event times, uniformly within
// each bin (deterministic given the seed), re-based so the first bin is t=0.
std::vector<double> ScatterEvents(const TimeSeries& demand, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> events;
  for (size_t i = 0; i < demand.size(); ++i) {
    const int64_t count = static_cast<int64_t>(std::llround(demand.value(i)));
    for (int64_t k = 0; k < count; ++k) {
      events.push_back(demand.TimeAt(i) + rng.NextDouble() * demand.interval());
    }
  }
  std::sort(events.begin(), events.end());
  const double base = demand.start();
  for (double& t : events) t -= base;
  return events;
}

void PrintMetrics(const PoolMetrics& metrics) {
  CogsModel cogs;
  std::printf("requests            %ld\n", metrics.total_requests);
  std::printf("pool hit rate       %.2f%%\n", 100.0 * metrics.hit_rate);
  std::printf("avg wait            %.2f s (capped at on-demand latency)\n",
              metrics.avg_wait_seconds_capped);
  std::printf("avg pool size       %.2f (max %.0f)\n", metrics.avg_pool_size,
              metrics.max_pool_size);
  std::printf("idle cluster time   %s\n",
              HumanDuration(metrics.idle_cluster_seconds).c_str());
  std::printf("idle COGS           $%.2f\n",
              cogs.IdleDollars(metrics.idle_cluster_seconds));
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  WorkloadConfig config = ProfileByName(
      FlagOr(flags, "profile", "east-medium"),
      CountFlag(flags, "seed", 7));
  config.duration_days = NumFlag(flags, "days", 2.0);
  auto generator = DieOnError(DemandGenerator::Create(config), "generate");
  TimeSeries series = generator.GenerateBinned();
  const std::string out = RequiredFlag(flags, "out");
  if (Status s = SaveTimeSeriesCsv(series, out); !s.ok()) Die(s.ToString());
  std::printf("wrote %zu bins (%.0f requests) to %s\n", series.size(),
              series.Sum(), out.c_str());
  return 0;
}

int CmdRecommend(const std::map<std::string, std::string>& flags) {
  TimeSeries demand = DieOnError(
      LoadTimeSeriesCsv(RequiredFlag(flags, "demand")), "load demand");
  PipelineConfig config;
  config.model = ModelByName(FlagOr(flags, "model", "ssa+"));
  config.forecast.window = CountFlag(flags, "window", 96);
  config.forecast.horizon = CountFlag(flags, "horizon", 48);
  config.forecast.alpha_prime = NumFlag(flags, "loss-alpha", 0.9);
  config.saa.alpha_prime = NumFlag(flags, "alpha", 0.3);
  config.saa.pool.tau_bins = CountFlag(flags, "tau-bins", 3);
  config.saa.pool.max_pool_size =
      static_cast<int64_t>(CountFlag(flags, "max-pool", 500));
  config.recommendation_bins = CountFlag(flags, "bins", 120);
  config.smoothing_factor_bins = CountFlag(flags, "smooth-sf", 0);
  ObsBundle obs;
  config.obs = obs.Context();
  const auto thread_pool = PoolFromFlags(flags);
  config.forecast.exec.pool = thread_pool.get();
  auto engine = DieOnError(RecommendationEngine::Create(config), "config");
  auto rec = DieOnError(engine.Run(demand), "pipeline");
  if (thread_pool != nullptr) thread_pool->PublishTo(&obs.registry);
  ExportObs(flags, obs);

  StoredSchedule stored;
  stored.start_time =
      demand.TimeAt(demand.size() - 1) + demand.interval();
  stored.interval_seconds = demand.interval();
  stored.pool_size_per_bin = rec.pool_size_per_bin;
  const std::string out = RequiredFlag(flags, "out");
  if (Status s = SaveScheduleCsv(stored, out); !s.ok()) Die(s.ToString());
  double mean = 0;
  for (int64_t n : rec.pool_size_per_bin) mean += static_cast<double>(n);
  std::printf("model %s: wrote %zu-bin schedule (avg pool %.1f) to %s\n",
              rec.model_name.c_str(), rec.pool_size_per_bin.size(),
              mean / static_cast<double>(rec.pool_size_per_bin.size()),
              out.c_str());
  return 0;
}

int CmdEvaluate(const std::map<std::string, std::string>& flags) {
  TimeSeries demand = DieOnError(
      LoadTimeSeriesCsv(RequiredFlag(flags, "demand")), "load demand");
  StoredSchedule schedule = DieOnError(
      LoadScheduleCsv(RequiredFlag(flags, "schedule")), "load schedule");
  if (schedule.pool_size_per_bin.size() != demand.size()) {
    Die(StrFormat("schedule has %zu bins but demand has %zu",
                  schedule.pool_size_per_bin.size(), demand.size()));
  }
  PoolModelConfig pool;
  pool.tau_bins = CountFlag(flags, "tau-bins", 3);
  pool.max_pool_size = 1'000'000;  // the schedule is taken as-is
  auto metrics = DieOnError(
      EvaluateSchedule(demand, schedule.pool_size_per_bin, pool), "evaluate");
  PrintMetrics(metrics);
  return 0;
}

int CmdSimulate(const std::map<std::string, std::string>& flags) {
  TimeSeries demand = DieOnError(
      LoadTimeSeriesCsv(RequiredFlag(flags, "demand")), "load demand");
  StoredSchedule schedule = DieOnError(
      LoadScheduleCsv(RequiredFlag(flags, "schedule")), "load schedule");
  if (schedule.pool_size_per_bin.size() != demand.size()) {
    Die("schedule/demand bin counts differ");
  }
  // Scatter the binned counts into arrival events (deterministic seed).
  std::vector<double> events =
      ScatterEvents(demand, CountFlag(flags, "seed", 1));

  SimConfig config;
  config.creation_latency_mean_seconds = NumFlag(flags, "latency", 90.0);
  config.creation_latency_cv = NumFlag(flags, "latency-cv", 0.2);
  config.seed = CountFlag(flags, "seed", 1);
  ObsBundle obs;
  config.obs = obs.Context();
  auto simulator = DieOnError(PoolSimulator::Create(config), "sim config");
  const double horizon =
      demand.interval() * static_cast<double>(demand.size());
  auto result = DieOnError(
      simulator.Run(events, schedule.pool_size_per_bin, demand.interval(),
                    horizon),
      "simulate");
  ExportObs(flags, obs);
  CogsModel cogs;
  std::printf("requests            %ld\n", result.total_requests);
  std::printf("pool hit rate       %.2f%%\n", 100.0 * result.hit_rate);
  std::printf("avg / p99 wait      %.2f / %.1f s\n", result.avg_wait_seconds,
              result.p99_wait_seconds);
  std::printf("clusters created    %ld (+%ld on-demand, %ld cancelled)\n",
              result.clusters_created, result.on_demand_created,
              result.hydrations_cancelled);
  std::printf("idle cluster time   %s ($%.2f)\n",
              HumanDuration(result.idle_cluster_seconds).c_str(),
              cogs.IdleDollars(result.idle_cluster_seconds));
  return 0;
}

int CmdSweep(const std::map<std::string, std::string>& flags) {
  TimeSeries demand = DieOnError(
      LoadTimeSeriesCsv(RequiredFlag(flags, "demand")), "load demand");
  PoolModelConfig pool;
  pool.tau_bins = CountFlag(flags, "tau-bins", 3);
  pool.max_pool_size = static_cast<int64_t>(CountFlag(flags, "max-pool", 500));
  const std::vector<double> alphas = {0.95, 0.8, 0.6, 0.4, 0.2,
                                      0.1,  0.05, 0.02, 0.005};
  const auto thread_pool = PoolFromFlags(flags);
  auto points = DieOnError(
      SweepPareto(demand, demand, pool, alphas, {}, {thread_pool.get()}),
      "sweep");
  CogsModel cogs;
  std::printf("%8s %14s %12s %10s %14s\n", "alpha'", "avg wait(s)",
              "hit rate", "avg pool", "idle $");
  for (const ParetoPoint& p : points) {
    std::printf("%8.3f %14.2f %11.1f%% %10.1f %14.2f\n", p.alpha_prime,
                p.metrics.avg_wait_seconds_capped, 100.0 * p.metrics.hit_rate,
                p.metrics.avg_pool_size,
                cogs.IdleDollars(p.metrics.idle_cluster_seconds));
  }
  return 0;
}

std::vector<std::string> SplitCsv(const std::string& text) {
  std::vector<std::string> items;
  std::string item;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] != ',') {
      item += text[i];
      continue;
    }
    if (!item.empty()) items.push_back(item);
    item.clear();
  }
  return items;
}

// Comma-list flag parsers for the tuner grid; absent flags keep the
// FleetTunerConfig defaults.
void ApplyTunerGridFlags(const std::map<std::string, std::string>& flags,
                         const std::string& models_flag,
                         const std::string& alphas_flag,
                         const std::string& windows_flag,
                         autotune::FleetTunerConfig* tuner) {
  if (auto it = flags.find(models_flag); it != flags.end()) {
    tuner->models.clear();
    for (const std::string& name : SplitCsv(it->second)) {
      tuner->models.push_back(ModelByName(name));
    }
  }
  if (auto it = flags.find(alphas_flag); it != flags.end()) {
    tuner->alphas.clear();
    for (const std::string& item : SplitCsv(it->second)) {
      tuner->alphas.push_back(DieOnError(ParseDouble(item), alphas_flag.c_str()));
    }
  }
  if (auto it = flags.find(windows_flag); it != flags.end()) {
    tuner->windows.clear();
    for (const std::string& item : SplitCsv(it->second)) {
      tuner->windows.push_back(ParseCount(
          item, "--" + windows_flag, std::numeric_limits<int64_t>::max()));
    }
  }
}

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The offline what-would-the-tuner-pick probe: one FleetTuner search over a
// demand trace, printed as the winner plus the exact `tuning.<pool>`
// document a live tune would publish. --repeat N re-tunes over the same
// trace, so the second run exercises the memo cache (warm) and the command
// reports the speedup.
int CmdTune(const std::map<std::string, std::string>& flags) {
  const uint64_t seed = CountFlag(flags, "seed", 7);
  const std::string profile = FlagOr(flags, "profile", "regime-shift");
  TimeSeries demand = [&] {
    if (flags.count("demand") != 0) {
      return DieOnError(LoadTimeSeriesCsv(flags.at("demand")), "load demand");
    }
    WorkloadConfig workload = ProfileByName(profile, seed);
    workload.duration_days = NumFlag(flags, "days", 10.0);
    auto generator = DieOnError(DemandGenerator::Create(workload), "generate");
    return generator.GenerateBinned();
  }();
  const std::string pool_name = FlagOr(flags, "pool", profile);

  autotune::FleetTunerConfig config;
  ApplyTunerGridFlags(flags, "models", "alphas", "windows", &config);
  config.rungs = CountFlag(flags, "rungs", 3);
  config.eta = CountFlag(flags, "eta", 3);
  config.eval_bins = CountFlag(flags, "eval-bins", 120);
  config.min_train_bins = CountFlag(flags, "min-train", 32);
  config.hysteresis_pct = NumFlag(flags, "hysteresis", 5.0);
  config.target_wait_seconds = NumFlag(flags, "target-wait", 1.0);
  config.refine_steps = CountFlag(flags, "refine-steps", 3);
  config.idle_cost_weight = NumFlag(flags, "idle-weight", 2e-4);
  config.pool.tau_bins = CountFlag(flags, "tau-bins", 3);
  config.pool.max_pool_size =
      static_cast<int64_t>(CountFlag(flags, "max-pool", 500));
  ObsBundle obs;
  config.obs = obs.Context();
  const auto thread_pool = PoolFromFlags(flags);
  config.exec.pool = thread_pool.get();
  auto tuner = DieOnError(autotune::FleetTuner::Create(config), "tune config");

  const int repeat = std::max(
      1, static_cast<int>(CountFlag(flags, "repeat", 1,
                                    std::numeric_limits<int>::max())));
  autotune::PoolTuneResult result;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  for (int r = 0; r < repeat; ++r) {
    const double begin = MonotonicSeconds();
    // Later repeats hand the previous winner in as the incumbent — the same
    // contract the live loop follows tick over tick.
    const autotune::TuningCandidate incumbent = result.winner;
    result = tuner->TunePool(pool_name, demand,
                             r == 0 || !result.ok ? nullptr : &incumbent);
    const double elapsed = MonotonicSeconds() - begin;
    if (r == 0) cold_seconds = elapsed;
    warm_seconds = elapsed;
  }
  if (!result.ok) Die("tune failed: " + result.error);

  std::printf("pool '%s': %zu bins, %zu candidates, %zu evaluations "
              "(%zu memo hits)\n",
              pool_name.c_str(), demand.size(), result.candidates,
              result.evaluations, result.memo_hits);
  std::printf("winner %s  score %.6f%s\n",
              autotune::TuningCandidateName(result.winner).c_str(),
              result.winner_score,
              result.switched ? "" : "  (incumbent kept)");
  if (repeat > 1) {
    std::printf("cold %.3fs -> warm %.3fs (%.2fx)\n", cold_seconds,
                warm_seconds,
                warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0);
  }
  StoredTuning stored;
  stored.pool = pool_name;
  stored.model = result.winner.model;
  stored.alpha_prime = result.winner.alpha_prime;
  stored.window = result.winner.window;
  std::printf("-- tuning document --\n%s", SerializeTuning(stored).c_str());
  return 0;
}

int CmdLoop(const std::map<std::string, std::string>& flags) {
  const uint64_t seed = CountFlag(flags, "seed", 7);
  TimeSeries demand = [&] {
    if (flags.count("demand") != 0) {
      return DieOnError(LoadTimeSeriesCsv(flags.at("demand")), "load demand");
    }
    WorkloadConfig workload =
        ProfileByName(FlagOr(flags, "profile", "east-medium"), seed);
    workload.duration_days = NumFlag(flags, "days", 1.0);
    auto generator = DieOnError(DemandGenerator::Create(workload), "generate");
    return generator.GenerateBinned();
  }();
  std::vector<double> events = ScatterEvents(demand, seed);
  // Re-base the demand trace itself so worker virtual time matches events.
  demand = TimeSeries(0.0, demand.interval(),
                      std::vector<double>(demand.values()));

  ObsBundle obs;
  PipelineConfig pipeline;
  pipeline.obs = obs.Context();
  pipeline.model = ModelByName(FlagOr(flags, "model", "ssa+"));
  pipeline.forecast.window = CountFlag(flags, "window", 96);
  pipeline.forecast.horizon = CountFlag(flags, "horizon", 48);
  pipeline.forecast.alpha_prime = NumFlag(flags, "loss-alpha", 0.9);
  pipeline.saa.alpha_prime = NumFlag(flags, "alpha", 0.3);
  pipeline.saa.pool.tau_bins = CountFlag(flags, "tau-bins", 3);
  pipeline.saa.pool.max_pool_size =
      static_cast<int64_t>(CountFlag(flags, "max-pool", 500));
  const auto thread_pool = PoolFromFlags(flags);
  pipeline.forecast.exec.pool = thread_pool.get();
  auto engine = DieOnError(RecommendationEngine::Create(pipeline), "config");

  live::ReplayConfig config;
  config.run_interval_seconds = NumFlag(flags, "run-interval", 1800.0);
  config.history_bins = CountFlag(flags, "history-bins",
                                  std::max<size_t>(8, demand.size() / 2));
  config.sim.creation_latency_mean_seconds = NumFlag(flags, "latency", 90.0);
  config.sim.creation_latency_cv = NumFlag(flags, "latency-cv", 0.2);
  config.sim.seed = seed;
  config.obs = obs.Context();
  const live::ReplayResult result =
      DieOnError(live::Replay(engine, config, {{demand, events}}), "replay")
          .front();
  if (thread_pool != nullptr) thread_pool->PublishTo(&obs.registry);

  // Bridge the §7.5 dashboard into the same registry before exporting.
  const double horizon =
      demand.interval() * static_cast<double>(demand.size());
  auto monitor = DieOnError(
      Monitor::Create(AlertConfig{}, CogsModel{}, config.default_pool_size),
      "monitor");
  const size_t successes = result.pipeline_runs - result.pipeline_failures -
                           result.guardrail_rejections;
  for (size_t i = 0; i < result.pipeline_failures; ++i) {
    monitor.RecordPipelineRun(horizon, PipelineStatus::kFailed);
  }
  for (size_t i = 0; i < result.guardrail_rejections; ++i) {
    monitor.RecordPipelineRun(horizon, PipelineStatus::kGuardrailRejected);
  }
  for (size_t i = 0; i < successes; ++i) {
    monitor.RecordPipelineRun(horizon, PipelineStatus::kSucceeded);
  }
  monitor.RecordClusterIdle(horizon, result.sim.idle_cluster_seconds);
  if (!result.applied_schedule.empty()) {
    monitor.RecordRecommendation(
        horizon, static_cast<double>(result.applied_schedule.back()));
  }
  monitor.PublishTo(&obs.registry, horizon);

  CogsModel cogs;
  std::printf("pipeline runs       %zu (%zu failed, %zu guardrail-rejected)\n",
              result.pipeline_runs, result.pipeline_failures,
              result.guardrail_rejections);
  std::printf("fallback bins       %zu\n", result.fallback_bins);
  std::printf("requests            %ld\n", result.sim.total_requests);
  std::printf("pool hit rate       %.2f%%\n", 100.0 * result.sim.hit_rate);
  std::printf("avg / p99 wait      %.2f / %.1f s\n",
              result.sim.avg_wait_seconds, result.sim.p99_wait_seconds);
  std::printf("idle cluster time   %s ($%.2f)\n",
              HumanDuration(result.sim.idle_cluster_seconds).c_str(),
              cogs.IdleDollars(result.sim.idle_cluster_seconds));
  ExportObs(flags, obs);
  return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;

void HandleStopSignal(int) { g_serve_stop = 1; }

int CmdServe(const std::map<std::string, std::string>& flags) {
  const uint64_t seed = CountFlag(flags, "seed", 7);
  const std::string profile = FlagOr(flags, "profile", "east-medium");

  // Fit a recommendation for the profile (or a supplied trace) and publish
  // it as the document GetRecommendation serves.
  TimeSeries demand = [&] {
    if (flags.count("demand") != 0) {
      return DieOnError(LoadTimeSeriesCsv(flags.at("demand")), "load demand");
    }
    WorkloadConfig workload = ProfileByName(profile, seed);
    workload.duration_days = NumFlag(flags, "days", 1.0);
    auto generator = DieOnError(DemandGenerator::Create(workload), "generate");
    return generator.GenerateBinned();
  }();
  PipelineConfig pipeline;
  pipeline.model = ModelByName(FlagOr(flags, "model", "ssa+"));
  pipeline.forecast.window = CountFlag(flags, "window", 96);
  pipeline.forecast.horizon = CountFlag(flags, "horizon", 48);
  pipeline.forecast.alpha_prime = NumFlag(flags, "loss-alpha", 0.9);
  pipeline.saa.alpha_prime = NumFlag(flags, "alpha", 0.3);
  pipeline.saa.pool.tau_bins = CountFlag(flags, "tau-bins", 3);
  pipeline.saa.pool.max_pool_size =
      static_cast<int64_t>(CountFlag(flags, "max-pool", 500));
  pipeline.recommendation_bins = CountFlag(flags, "bins", 120);
  obs::MetricsRegistry registry;
  pipeline.obs = ObsContext{&registry, nullptr};
  auto engine = DieOnError(RecommendationEngine::Create(pipeline), "config");
  auto rec = DieOnError(engine.Run(demand), "pipeline");

  StoredRecommendation stored;
  stored.recommendation = rec;
  stored.start_time = demand.TimeAt(demand.size() - 1) + demand.interval();
  stored.interval_seconds = demand.interval();
  const std::string key = FlagOr(flags, "key", profile);
  const size_t shards = CountFlag(flags, "shards", 16);
  ShardedDocumentStore documents(shards);
  documents.Put(key, SerializeRecommendation(stored), stored.start_time);
  ShardedTelemetryStore telemetry(shards);

  const size_t threads = CountFlag(flags, "threads", 4);
  std::unique_ptr<exec::ThreadPool> pool =
      threads > 0 ? std::make_unique<exec::ThreadPool>(threads) : nullptr;

  // One tracer spans the whole serving stack: the server's per-request
  // spans, the router's per-method children and the store accesses all land
  // here, keyed by the trace id each client stamps into its frames.
  // `ipool_cli trace` (the Trace method) reads them back.
  obs::Tracer tracer;

  // --loop-interval > 0 runs the streaming control plane inside the server:
  // every `demand.<pool>` telemetry metric becomes a pool whose document is
  // re-published each tick. The sharded stores make each tick's publish
  // atomic per shard under concurrent reads.
  std::unique_ptr<live::LiveControlPlane> live_plane;
  const double loop_interval = NumFlag(flags, "loop-interval", 0.0);

  net::Router router(
      net::RouterConfig{&documents, &telemetry, &registry, &tracer});
  if (loop_interval > 0.0) {
    live::LiveControlPlaneConfig live_config;
    live_config.tick_interval_seconds = loop_interval;
    live_config.bin_interval_seconds = demand.interval();
    live_config.history_bins = CountFlag(flags, "history-bins", 480);
    live_config.min_history_points = CountFlag(flags, "min-history", 64);
    live_config.exec.pool = pool.get();
    live_config.obs = ObsContext{&registry, &tracer};
    // --tune-interval > 0 adds the fleet auto-tuner to the loop: each
    // pool's (model, alpha', window) search re-runs on this cadence and
    // publishes `tuning.<pool>`; the next tick serves with the winner.
    live_config.tune_interval_seconds = NumFlag(flags, "tune-interval", 0.0);
    if (live_config.tune_interval_seconds > 0.0) {
      ApplyTunerGridFlags(flags, "tune-models", "tune-alphas", "tune-windows",
                          &live_config.tuner);
      live_config.tuner.eval_bins = CountFlag(flags, "tune-eval-bins", 120);
      // Rung-0 training slices are clamped up to this floor; SSA-family
      // windows clamp to half the slice, so the floor must be at least 2x
      // the largest window in the grid or the cheap rungs cut those
      // candidates on a handicapped fit.
      live_config.tuner.min_train_bins = CountFlag(flags, "tune-min-train", 32);
      live_config.tuner.hysteresis_pct = NumFlag(flags, "tune-hysteresis", 5.0);
    }
    live_plane = DieOnError(
        live::LiveControlPlane::Create(&engine, &telemetry, &documents,
                                       live_config),
        "live control plane");
    router.set_live(live_plane.get());
  }
  net::ServerConfig server_config;
  server_config.port =
      static_cast<uint16_t>(CountFlag(flags, "port", 7070, 65535));
  server_config.pool = pool.get();
  server_config.max_inflight_per_conn = CountFlag(flags, "max-inflight", 64);
  server_config.metrics = &registry;
  server_config.tracer = &tracer;
  const double drain_timeout = NumFlag(flags, "drain-timeout", 5.0);
  server_config.default_drain_timeout_seconds = drain_timeout;
  auto server = DieOnError(
      net::Server::Start(server_config,
                         [&router](const net::Frame& request) {
                           return router.Handle(request);
                         }),
      "serve");

  if (live_plane != nullptr) live_plane->Start();

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::printf("serving %s (document '%s', %zu bins) on 127.0.0.1:%u\n",
              profile.c_str(), key.c_str(), rec.pool_size_per_bin.size(),
              server->port());
  std::printf("methods: GetRecommendation PublishTelemetry Health Metrics "
              "Trace; %zu handler threads; ctrl-c to drain\n",
              threads);
  if (live_plane != nullptr) {
    std::printf("live loop: tick every %.2fs, pools from telemetry metrics "
                "'%s<pool>' (>= %zu points), %zu history bins\n",
                loop_interval,
                live_plane->config().demand_metric_prefix.c_str(),
                live_plane->config().min_history_points,
                live_plane->config().history_bins);
    if (live_plane->config().tune_interval_seconds > 0.0) {
      std::printf("auto-tune: per-pool search every %.2fs, winners under "
                  "'%s<pool>'\n",
                  live_plane->config().tune_interval_seconds,
                  live_plane->config().tuning_doc_prefix.c_str());
    }
  }
  std::fflush(stdout);

  const double max_seconds = NumFlag(flags, "max-seconds", 0.0);
  const auto started = std::chrono::steady_clock::now();
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (max_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
                .count() >= max_seconds) {
      break;
    }
  }
  std::printf("draining (up to %.1fs)...\n", drain_timeout);
  std::fflush(stdout);
  // The live loop stops before the server so no tick publishes into a
  // draining control plane; the in-flight tick finishes first.
  if (live_plane != nullptr) {
    live_plane->Stop();
    const live::LiveStatus live_status = live_plane->Snapshot();
    std::printf(
        "live loop: %llu ticks (%llu ok, %llu failed, %llu idle), "
        "%zu pools published\n",
        static_cast<unsigned long long>(live_status.ticks_total),
        static_cast<unsigned long long>(live_status.ticks_ok),
        static_cast<unsigned long long>(live_status.ticks_failed),
        static_cast<unsigned long long>(live_status.ticks_idle),
        live_status.pools_published);
    if (live_plane->config().tune_interval_seconds > 0.0) {
      std::printf(
          "auto-tune: %llu tunes (%llu switched, %llu failed), "
          "%zu pools on tuned configs\n",
          static_cast<unsigned long long>(live_status.tunes_total),
          static_cast<unsigned long long>(live_status.tunes_switched),
          static_cast<unsigned long long>(live_status.tunes_failed),
          live_status.pools_tuned);
    }
  }
  server->Shutdown(drain_timeout);
  if (pool != nullptr) pool->PublishTo(&registry);
  std::printf(
      "served %llu requests (%llu shed, %llu protocol errors) on %llu "
      "connections\n",
      static_cast<unsigned long long>(server->requests_handled()),
      static_cast<unsigned long long>(server->requests_shed()),
      static_cast<unsigned long long>(server->protocol_errors()),
      static_cast<unsigned long long>(server->connections_accepted()));
  return 0;
}

net::ClientConfig ClientFromFlags(
    const std::map<std::string, std::string>& flags) {
  net::ClientConfig config;
  config.host = FlagOr(flags, "host", "127.0.0.1");
  config.port = static_cast<uint16_t>(CountFlag(flags, "port", 7070, 65535));
  config.request_timeout_seconds = NumFlag(flags, "timeout", 2.0);
  config.max_attempts = static_cast<int>(CountFlag(
                            flags, "retries", 3,
                            std::numeric_limits<int>::max() - 1)) +
                        1;
  // The library default seed is deterministic (tests reproduce
  // byte-for-byte), but each CLI one-shot is a distinct caller and must
  // stamp distinct trace ids — otherwise every `get` in a script lands its
  // spans under the same trace in the server's ring.
  config.jitter_seed =
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()) ^
      (static_cast<uint64_t>(getpid()) << 32);
  return config;
}

// Keeps only the JSONL lines belonging to `trace_id` (the exported span
// format carries an exact `"trace":N,` field).
std::string FilterSpansByTrace(const std::string& jsonl, uint64_t trace_id) {
  const std::string needle = StrFormat(
      "\"trace\":%llu,", static_cast<unsigned long long>(trace_id));
  std::string out;
  size_t begin = 0;
  while (begin < jsonl.size()) {
    size_t end = jsonl.find('\n', begin);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(begin, end - begin);
    if (line.find(needle) != std::string::npos) {
      out += line;
      out += '\n';
    }
    begin = end + 1;
  }
  return out;
}

// Publishes a synthetic telemetry series (metric,time,value lines) to a
// running server — the injection half of the live-loop workflow: publish a
// demand spike under `demand.<pool>`, then watch `get --key <pool>` move
// within a few ticks.
int CmdPublish(const std::map<std::string, std::string>& flags) {
  net::Client client(ClientFromFlags(flags));
  const std::string metric = RequiredFlag(flags, "metric");
  const double start = NumFlag(flags, "start", 0.0);
  const double interval = NumFlag(flags, "interval", 30.0);
  std::vector<double> values;
  if (auto it = flags.find("values"); it != flags.end()) {
    // --values "v0,v1,..." — one point per item, `interval` apart.
    std::string item;
    for (size_t i = 0; i <= it->second.size(); ++i) {
      if (i < it->second.size() && it->second[i] != ',') {
        item += it->second[i];
        continue;
      }
      values.push_back(DieOnError(ParseDouble(item), "values"));
      item.clear();
    }
  } else {
    const size_t count = CountFlag(flags, "count", 1);
    values.assign(count, NumFlag(flags, "value", 1.0));
  }
  if (values.empty()) Die("publish: no points");
  // Batches stay under the router's per-request telemetry-line cap.
  size_t sent = 0;
  while (sent < values.size()) {
    const size_t batch = std::min<size_t>(4096, values.size() - sent);
    std::string payload;
    for (size_t i = 0; i < batch; ++i) {
      payload += StrFormat("%s,%.6f,%.6f\n", metric.c_str(),
                           start + interval * static_cast<double>(sent + i),
                           values[sent + i]);
    }
    auto response =
        client.Call(net::Method::kPublishTelemetry, std::move(payload));
    if (!response.ok()) Die("publish: " + response.status().ToString());
    if (response->status != net::WireStatus::kOk) {
      Die("publish rejected: " + response->payload);
    }
    sent += batch;
  }
  std::printf("published %zu points to %s (t = [%.1f, %.1f] step %.1f)\n",
              values.size(), metric.c_str(), start,
              start + interval * static_cast<double>(values.size() - 1),
              interval);
  return 0;
}

int CmdGet(const std::map<std::string, std::string>& flags) {
  const bool want_trace = NumFlag(flags, "trace", 0) != 0;
  obs::Tracer tracer;
  net::ClientConfig config = ClientFromFlags(flags);
  if (want_trace) config.tracer = &tracer;
  net::Client client(config);
  const std::string key = FlagOr(flags, "key", "east-medium");
  auto document = client.GetRecommendation(key);
  if (!document.ok()) Die("get: " + document.status().ToString());
  if (NumFlag(flags, "raw", 0) != 0) {
    // Verbatim payload bytes — the escape hatch for documents that are not
    // recommendations (tuning.<pool> configs, future formats). Scripts
    // parse this output, so nothing else is printed.
    std::fwrite(document->data(), 1, document->size(), stdout);
    return 0;
  }
  // The id this Call stamped links the client spans below to the server's.
  const uint64_t trace_id = client.stats().last_trace_id;
  auto stored = DieOnError(ParseRecommendation(*document), "parse");
  const auto& schedule = stored.recommendation.pool_size_per_bin;
  double mean = 0;
  for (int64_t n : schedule) mean += static_cast<double>(n);
  std::printf("document '%s': model %s, %zu bins from t=%.0f (avg pool %.1f, "
              "now->target %ld)\n",
              key.c_str(), stored.recommendation.model_name.c_str(),
              schedule.size(), stored.start_time,
              mean / static_cast<double>(schedule.size()),
              static_cast<long>(stored.TargetAt(stored.start_time)));
  if (want_trace) {
    // Both halves of the exchange, joined by the trace id: our spans from
    // the local tracer, the server's via the Trace method (that fetch gets
    // its own trace id, so it never pollutes the one we filter on).
    auto server_spans = client.FetchTrace();
    if (!server_spans.ok()) Die("trace: " + server_spans.status().ToString());
    std::printf("\ntrace %llu\n-- client spans --\n",
                static_cast<unsigned long long>(trace_id));
    std::fputs(FilterSpansByTrace(obs::SpansJsonl(tracer), trace_id).c_str(),
               stdout);
    std::printf("-- server spans --\n");
    const std::string matched = FilterSpansByTrace(*server_spans, trace_id);
    if (matched.empty()) {
      std::printf("(none — is the server running with tracing enabled?)\n");
    } else {
      std::fputs(matched.c_str(), stdout);
    }
  }
  return 0;
}

int CmdTrace(const std::map<std::string, std::string>& flags) {
  net::Client client(ClientFromFlags(flags));
  auto text = client.FetchTrace(CountFlag(flags, "limit", 0));
  if (!text.ok()) Die("trace: " + text.status().ToString());
  std::fwrite(text->data(), 1, text->size(), stdout);
  return 0;
}

int CmdScrape(const std::map<std::string, std::string>& flags) {
  net::Client client(ClientFromFlags(flags));
  auto text = client.ScrapeMetrics();
  if (!text.ok()) Die("scrape: " + text.status().ToString());
  std::fwrite(text->data(), 1, text->size(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ipool_cli <generate|recommend|evaluate|simulate|"
                 "sweep|tune|loop|serve|get|publish|scrape|trace> "
                 "[--flag value ...]\n"
                 "  tune:    --demand demand.csv | --profile regime-shift"
                 " [--models baseline,ssa,ssa+] [--alphas ...]\n"
                 "           [--windows 48,96] [--rungs 3] [--eval-bins 120]"
                 " [--hysteresis 5] [--threads 0] [--repeat 1]\n"
                 "  serve:   --port 7070 --threads 4 --drain-timeout 5\n"
                 "           (plus --profile/--demand/--model/--key/"
                 "--max-seconds)\n"
                 "           --loop-interval 5 runs the live control plane "
                 "(--min-history 64, --history-bins 480)\n"
                 "           --tune-interval T adds the fleet auto-tuner "
                 "(--tune-models, --tune-alphas, --tune-windows, ...)\n"
                 "  get:     --port 7070 [--host 127.0.0.1] --key east-medium"
                 " [--trace 1] [--raw 1]\n"
                 "  publish: --port 7070 --metric demand.POOL [--start 0]"
                 " [--interval 30] [--count N --value V | --values v0,v1,..]\n"
                 "  scrape:  --port 7070 [--host 127.0.0.1]\n"
                 "  trace:   --port 7070 [--limit 256]\n");
    return 1;
  }
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv, 2, command);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "recommend") return CmdRecommend(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "simulate") return CmdSimulate(flags);
  if (command == "sweep") return CmdSweep(flags);
  if (command == "tune") return CmdTune(flags);
  if (command == "loop") return CmdLoop(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "get") return CmdGet(flags);
  if (command == "publish") return CmdPublish(flags);
  if (command == "scrape") return CmdScrape(flags);
  if (command == "trace") return CmdTrace(flags);
  Die("unknown command: " + command);
}
