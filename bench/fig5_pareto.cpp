// Figure 5 / §7.3: the wait-time vs idle-time trade-off curves of the
// end-to-end pipelines. For each model (baseline Eq 17, SSA, SSA+, mWDN) and
// each pipeline (2-step in 5a, E2E in 5b) a grid of (Eq 12 loss alpha', SAA
// alpha') combinations is evaluated and the Pareto-dominant points printed.
//
// Paper findings to reproduce:
//  (1) ML models dominate the no-intelligence baseline, most strongly at low
//      wait times;
//  (2) SSA-based prediction cannot reach very low wait times (no overshoot
//      control), while SSA+ and mWDN can (Eq 12 loss);
//  (3) the 2-step pipeline traces a better frontier than E2E.
#include <algorithm>

#include "bench/bench_util.h"
#include "forecast/forecaster.h"

int main() {
  using namespace ipool;
  using namespace ipool::bench;
  PrintHeader(
      "Figure 5: wait time vs idle time Pareto curves (5a: 2-step, 5b: E2E)",
      "Paper: ML >> baseline at low waits; SSA cannot reach low waits; "
      "2-step beats E2E.");

  TradeoffDataset dataset = MakeTradeoffDataset(/*seed=*/21);

  const std::vector<ModelKind> models = {ModelKind::kBaseline, ModelKind::kSsa,
                                         ModelKind::kSsaPlus, ModelKind::kMwdn};
  for (PipelineKind pipeline : {PipelineKind::k2Step, PipelineKind::kEndToEnd}) {
    std::printf("\n--- Figure 5%s: %s pipeline (Pareto-dominant points) ---\n",
                pipeline == PipelineKind::k2Step ? "a" : "b",
                PipelineKindToString(pipeline).c_str());
    std::printf("%-10s %8s %8s %14s %12s %14s\n", "model", "loss-k",
                "saa-a'", "avg wait(s)", "hit rate", "idle (h)");
    for (ModelKind model : models) {
      auto front = SweepTradeoffGrid(model, pipeline, dataset.train,
                                     dataset.eval);
      for (const CurvePoint& p : front) {
        std::printf("%-10s %8.2f %8.2f %14.2f %11.1f%% %14.2f\n",
                    ModelKindToString(model).c_str(), p.loss_alpha,
                    p.saa_alpha, p.metrics.avg_wait_seconds_capped,
                    100.0 * p.metrics.hit_rate,
                    p.metrics.idle_cluster_seconds / 3600.0);
      }
      double min_wait = 1e18;
      for (const CurvePoint& p : front) {
        min_wait = std::min(min_wait, p.metrics.avg_wait_seconds_capped);
      }
      std::printf("%-10s  -> lowest reachable avg wait: %.2f s\n",
                  ModelKindToString(model).c_str(), min_wait);
    }
  }
  std::printf("\nReading the curves: at equal wait time, the ML rows should "
              "sit at lower idle\nhours than the baseline; SSA's lowest "
              "reachable wait should exceed SSA+/mWDN's.\n");
  return 0;
}
