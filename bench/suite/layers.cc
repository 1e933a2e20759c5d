#include "bench/suite/layers.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "exec/task_profiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ipool::bench::suite {

namespace {

/// The series named `name` whose labels include `label_value`, or the first
/// series of that name when `label_value` is empty.
const obs::Histogram* FindHistogram(const obs::MetricsRegistry& registry,
                                    const std::string& name,
                                    const std::string& label_value = "") {
  for (const auto& entry : registry.Histograms()) {
    if (entry.name != name) continue;
    if (label_value.empty()) return entry.instrument;
    for (const auto& label : entry.labels) {
      if (label.second == label_value) return entry.instrument;
    }
  }
  return nullptr;
}

/// The series named `name` with the most observations (the engine labels
/// its fit/predict/solve histograms per model or solver path).
const obs::Histogram* BusiestHistogram(const obs::MetricsRegistry& registry,
                                       const std::string& name) {
  const obs::Histogram* best = nullptr;
  for (const auto& entry : registry.Histograms()) {
    if (entry.name == name &&
        (best == nullptr || entry.instrument->count() > best->count())) {
      best = entry.instrument;
    }
  }
  return best;
}

uint64_t HistogramCountTotal(const obs::MetricsRegistry& registry,
                             const std::string& name) {
  uint64_t total = 0;
  for (const auto& entry : registry.Histograms()) {
    if (entry.name == name) total += entry.instrument->count();
  }
  return total;
}

/// Sum over every label set of counter `name`, or only the series whose
/// labels include `label_value`.
double CounterTotal(const obs::MetricsRegistry& registry,
                    const std::string& name,
                    const std::string& label_value = "") {
  double total = 0.0;
  for (const auto& entry : registry.Counters()) {
    if (entry.name != name) continue;
    bool match = label_value.empty();
    for (const auto& label : entry.labels) {
      match = match || label.second == label_value;
    }
    if (match) total += static_cast<double>(entry.instrument->value());
  }
  return total;
}

double QuantileMs(const obs::Histogram* h, double q) {
  return h != nullptr ? h->Quantile(q) * 1e3 : 0.0;
}

double HistogramMean(const obs::Histogram* h) {
  return h != nullptr && h->count() > 0
             ? h->sum() / static_cast<double>(h->count())
             : 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Finished spans indexed by name and by parent.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<obs::SpanRecord> spans)
      : spans_(std::move(spans)) {
    for (size_t i = 0; i < spans_.size(); ++i) {
      by_name_[spans_[i].name].push_back(i);
      children_[spans_[i].parent_id].push_back(i);
    }
  }

  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (size_t i : Named(name)) out.push_back(spans_[i].duration_seconds);
    return out;
  }

  double Total(const std::string& name) const {
    double total = 0.0;
    for (size_t i : Named(name)) total += spans_[i].duration_seconds;
    return total;
  }

  /// Time the direct children of span `i` whose names start with `prefix`
  /// cover ("" matches every child).
  double ChildTime(size_t i, const std::string& prefix) const {
    double total = 0.0;
    const auto it = children_.find(spans_[i].id);
    if (it == children_.end()) return 0.0;
    for (size_t c : it->second) {
      if (spans_[c].name.rfind(prefix, 0) == 0) {
        total += spans_[c].duration_seconds;
      }
    }
    return total;
  }

  const std::vector<size_t>& Named(const std::string& name) const {
    static const std::vector<size_t> kNone;
    const auto it = by_name_.find(name);
    return it != by_name_.end() ? it->second : kNone;
  }

  const obs::SpanRecord& at(size_t i) const { return spans_[i]; }

 private:
  std::vector<obs::SpanRecord> spans_;
  std::unordered_map<std::string, std::vector<size_t>> by_name_;
  std::unordered_map<uint64_t, std::vector<size_t>> children_;
};

double CoverageOf(const SpanIndex& spans) {
  double tick = 0.0;
  double staged = 0.0;
  for (size_t i : spans.Named("live.tick")) {
    tick += spans.at(i).duration_seconds;
    staged += spans.ChildTime(i, "live.");
  }
  return Ratio(staged, tick);
}

/// Median over ticks of (slowest pool / median pool) within the tick. Pool
/// spans run on exec workers, so they are matched to ticks by time.
double PoolSkew(const SpanIndex& spans) {
  std::vector<double> skews;
  for (size_t t : spans.Named("live.tick")) {
    const obs::SpanRecord& tick = spans.at(t);
    std::vector<double> pools;
    for (size_t p : spans.Named("live.pool")) {
      const obs::SpanRecord& pool = spans.at(p);
      if (pool.start_seconds >= tick.start_seconds &&
          pool.start_seconds <= tick.start_seconds + tick.duration_seconds) {
        pools.push_back(pool.duration_seconds);
      }
    }
    if (pools.empty()) continue;
    const double median = Median(pools);
    if (median > 0.0) {
      skews.push_back(*std::max_element(pools.begin(), pools.end()) /
                      median);
    }
  }
  return Median(skews);
}

double QueueOverRun(const std::vector<exec::TaskRecord>& records,
                    const std::string& label) {
  double queue = 0.0;
  double run = 0.0;
  for (const exec::TaskRecord& r : records) {
    if (r.kind != exec::TaskKind::kChunk || label != r.label) continue;
    queue += r.queue_seconds();
    run += r.run_seconds();
  }
  return Ratio(queue, run);
}

}  // namespace

Report CollectLayers(const LayerInputs& in) {
  static const obs::MetricsRegistry kEmptyRegistry;
  const obs::MetricsRegistry& reg =
      in.registry != nullptr ? *in.registry : kEmptyRegistry;
  std::vector<obs::SpanRecord> region_spans;
  if (in.tracer != nullptr) {
    for (obs::SpanRecord& span : in.tracer->FinishedSpans()) {
      if (span.start_seconds >= in.span_start_seconds) {
        region_spans.push_back(std::move(span));
      }
    }
  }
  const SpanIndex spans(std::move(region_spans));
  const double ticks = static_cast<double>(in.tick_seconds.size());
  Report r;

  // gen: the load generator itself.
  const LoadStats empty_gets;
  const LoadStats& gets = in.gets != nullptr ? *in.gets : empty_gets;
  r.Set("gen.lag_ms.p99", Quantile(gets.lag_seconds, 0.99) * 1e3, "ms");
  r.Set("gen.backlog.max", static_cast<double>(gets.backlog_max), "count");

  // net: request path, from the server's per-method histograms.
  const obs::Histogram* get_latency =
      FindHistogram(reg, "ipool_net_request_seconds", "GetRecommendation");
  const obs::Histogram* get_queue = FindHistogram(
      reg, "ipool_net_dispatch_queue_seconds", "GetRecommendation");
  r.Set("net.get_queue_ms.p50", QuantileMs(get_queue, 0.5), "ms");
  r.Set("net.get_queue_ms.p99", QuantileMs(get_queue, 0.99), "ms");
  r.Set("net.get_server_ms.p50", QuantileMs(get_latency, 0.5), "ms");
  r.Set("net.get_server_ms.p99", QuantileMs(get_latency, 0.99), "ms");
  r.Set("net.get_handler_us.p50",
        QuantileMs(FindHistogram(reg, kHandlerHistogram), 0.5) * 1e3, "us");
  // The client-observed tail: a few percent of GETs stall (scheduler ticks
  // on serve-read, fan-out chunks on the fleet workloads), so the p99 sits
  // between two modes and moves too much between runs to gate on. The
  // median is the fleet workloads' GET latency, which their end-to-end
  // sets leave out (fleet.cc says why).
  r.Set("net.get_client_ms.p50", Quantile(gets.latency_seconds, 0.5) * 1e3,
        "ms");
  r.Set("net.get_client_ms.p99", Quantile(gets.latency_seconds, 0.99) * 1e3,
        "ms");
  std::vector<double> completed;
  for (double s : gets.latency_seconds) {
    if (std::isfinite(s)) completed.push_back(s);
  }
  r.Set("net.get_wire_ms.mean",
        completed.empty()
            ? 0.0
            : (Mean(completed) - HistogramMean(get_latency)) * 1e3,
        "ms");
  r.Set("net.publish_server_ms.p99",
        QuantileMs(
            FindHistogram(reg, "ipool_net_request_seconds", "PublishTelemetry"),
            0.99),
        "ms");
  r.Set("net.shed", CounterTotal(reg, "ipool_net_shed_total"), "count");
  r.Set("net.protocol_errors",
        CounterTotal(reg, "ipool_net_protocol_errors_total"), "count");

  // service: the stores behind the tick's snapshot and publish stages.
  r.Set("service.telemetry_snapshot_ms",
        Mean(spans.Durations("live.snapshot")) * 1e3, "ms");
  r.Set("service.doc_publish_ms", Mean(spans.Durations("live.publish")) * 1e3,
        "ms");
  r.Set("service.payload_builds",
        Ratio(static_cast<double>(in.payload_builds), ticks), "count");

  // live: the tick and its stages.
  r.Set("live.tick_ms.p50", Median(in.tick_seconds) * 1e3, "ms");
  r.Set("live.resolve_ms", Ratio(spans.Total("live.resolve"), ticks) * 1e3,
        "ms");
  r.Set("live.refit_solve_ms",
        Ratio(spans.Total("live.refit_solve"), ticks) * 1e3, "ms");
  r.Set("live.tune_ms", Ratio(spans.Total("live.tune"), ticks) * 1e3, "ms");
  const std::vector<double> pool_spans = spans.Durations("live.pool");
  r.Set("live.pool_ms.p50", Median(pool_spans) * 1e3, "ms");
  r.Set("live.pool_ms.max",
        pool_spans.empty()
            ? 0.0
            : *std::max_element(pool_spans.begin(), pool_spans.end()) * 1e3,
        "ms");
  r.Set("live.pool_skew", PoolSkew(spans), "ratio");
  r.Set("live.stage_coverage", CoverageOf(spans), "ratio");
  r.Set("live.pool_failures", CounterTotal(reg, "ipool_live_pool_failures_total"),
        "count");

  // core / solver: the engine's pipeline-boundary histograms.
  r.Set("core.fit_ms.p50",
        QuantileMs(BusiestHistogram(reg, "ipool_forecast_fit_seconds"), 0.5),
        "ms");
  r.Set("core.predict_ms.p50",
        QuantileMs(BusiestHistogram(reg, "ipool_forecast_predict_seconds"),
                   0.5),
        "ms");
  r.Set("solver.solve_ms.p50",
        QuantileMs(BusiestHistogram(reg, "ipool_solve_seconds"), 0.5), "ms");
  r.Set("solver.blocks",
        Ratio(CounterTotal(reg, "ipool_solve_blocks_total"),
              static_cast<double>(
                  HistogramCountTotal(reg, "ipool_solve_seconds"))),
        "count");

  // forecast: SSA's final fit and its stages; SSA+'s anchor fits and
  // corrector record no spans, so they are the fit span's self time.
  r.Set("forecast.ssa_final_fit_ms.subspace",
        QuantileMs(FindHistogram(reg, "ipool_ssa_fit_seconds", "subspace"),
                   0.5),
        "ms");
  r.Set("forecast.ssa_final_fit_ms.jacobi",
        QuantileMs(FindHistogram(reg, "ipool_ssa_fit_seconds", "jacobi"), 0.5),
        "ms");
  r.Set("forecast.ssa_warm_hit_frac",
        Ratio(CounterTotal(reg, "ipool_ssa_warm_start_hits_total"),
              static_cast<double>(
                  HistogramCountTotal(reg, "ipool_ssa_fit_seconds"))),
        "ratio");
  for (const char* stage : {"gram", "eigen", "reconstruct", "recurrence"}) {
    r.Set(std::string("forecast.ssa_") + stage + "_ms",
          Mean(spans.Durations(std::string("ssa.") + stage)) * 1e3, "ms");
  }
  r.Set("forecast.ssa_subspace_iters.mean",
        HistogramMean(FindHistogram(reg, "ipool_ssa_subspace_iters")),
        "count");
  std::vector<double> fit_self;
  for (size_t i : spans.Named("fit")) {
    fit_self.push_back(spans.at(i).duration_seconds - spans.ChildTime(i, "ssa."));
  }
  r.Set("forecast.ssaplus_anchor_corrector_ms", Mean(fit_self) * 1e3, "ms");

  // nn: deep-model training, timed around each Fit by the benchmark.
  for (const char* model : {"mWDN", "TST", "IncpT"}) {
    const auto it = in.nn_fit_seconds.find(model);
    r.Set(std::string("nn.fit_ms.") + model,
          it != in.nn_fit_seconds.end() ? Median(it->second) * 1e3 : 0.0,
          "ms");
  }
  r.Set("nn.epochs", CounterTotal(reg, "ipool_train_epochs_total"), "count");

  // autotune: the successive-halving search.
  const obs::Histogram* tune = FindHistogram(reg, "ipool_tune_pool_seconds");
  const double tunes = CounterTotal(reg, "ipool_tune_runs_total");
  r.Set("autotune.tune_pool_ms.p50", QuantileMs(tune, 0.5), "ms");
  r.Set("autotune.tune_pool_ms.p99", QuantileMs(tune, 0.99), "ms");
  r.Set("autotune.rung_ms", Mean(spans.Durations("tune.rung")) * 1e3, "ms");
  r.Set("autotune.refine_ms", Mean(spans.Durations("tune.refine")) * 1e3,
        "ms");
  r.Set("autotune.evaluations",
        Ratio(CounterTotal(reg, "ipool_tune_evaluations_total"), tunes),
        "count");
  r.Set("autotune.memo_hits",
        Ratio(CounterTotal(reg, "ipool_tune_memo_hits_total"), tunes),
        "count");
  r.Set("autotune.switches",
        CounterTotal(reg, "ipool_tune_runs_total", "switched"), "count");
  r.Set("autotune.failed", CounterTotal(reg, "ipool_tune_runs_total", "failed"),
        "count");

  // exec: fan-out queueing, from the TaskProfiler.
  const std::vector<exec::TaskRecord> records =
      in.profiler != nullptr ? in.profiler->Records()
                             : std::vector<exec::TaskRecord>{};
  r.Set("exec.queue_over_run.live.pool", QueueOverRun(records, "live.pool"),
        "ratio");
  r.Set("exec.queue_over_run.tune.rung", QueueOverRun(records, "tune.rung"),
        "ratio");
  r.Set("exec.queue_over_run.solver.sweep_pareto",
        QueueOverRun(records, "solver.sweep_pareto"), "ratio");
  r.Set("exec.queue_over_run.offline", QueueOverRun(records, kOfflineLabel),
        "ratio");
  double busy = 0.0;
  for (const exec::TaskRecord& rec : records) {
    if (rec.kind == exec::TaskKind::kTask && rec.run_thread >= 0) {
      busy += rec.run_seconds();
    }
  }
  r.Set("exec.busy_frac",
        Ratio(busy, in.region_seconds * static_cast<double>(in.exec_threads)),
        "ratio");
  r.Set("exec.steals", static_cast<double>(in.steals), "count");

  // obs: the cost and completeness of tracing itself.
  r.Set("obs.trace_overhead_pct", in.trace_overhead_pct, "%");
  r.Set("obs.spans_dropped",
        in.tracer != nullptr ? static_cast<double>(in.tracer->dropped()) : 0.0,
        "count");

  // quality: what the served schedules would have cost.
  r.Set("quality.avg_wait_s", in.avg_wait_seconds, "s");
  r.Set("quality.idle_h", in.idle_hours, "h");
  return r;
}

}  // namespace ipool::bench::suite
