// ObsContext: the observability handle threaded through the control-plane
// configs (LiveControlPlaneConfig, ReplayConfig, PipelineConfig, SaaConfig,
// ForecastParams, SimConfig). It is two non-owning pointers; the default
// (both null) disables observability and every instrumented call site
// degrades to a single branch, so the hot paths stay zero-cost unless an
// operator wires a registry/tracer in (tools/ipool_cli --metrics-out /
// --trace-out).
#ifndef IPOOL_OBS_OBS_CONTEXT_H_
#define IPOOL_OBS_OBS_CONTEXT_H_

namespace ipool {

namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs

struct ObsContext {
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  bool enabled() const { return metrics != nullptr || tracer != nullptr; }

  /// Child configs default to a null context; parents propagate theirs into
  /// children that were left unset (an explicitly wired child wins).
  ObsContext OrElse(const ObsContext& fallback) const {
    return enabled() ? *this : fallback;
  }
};

}  // namespace ipool

#endif  // IPOOL_OBS_OBS_CONTEXT_H_
