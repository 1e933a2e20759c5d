// Figure 6 / §7.4: training time vs input data size for each model. The
// paper's headline: the hybrid SSA+ trains barely slower than SSA and ~200x
// faster than the pure deep models, which is why SSA+ is the deployed model
// (it can retrain in a continuous loop every few minutes).
#include <cmath>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "forecast/forecaster.h"
#include "forecast/ssa.h"

namespace {

using namespace ipool;
using namespace ipool::bench;

// Strong diurnal + hourly demand with light noise — the paper's periodic
// signal regime, where the spectrum has a well-gapped low-rank head and the
// subspace fast path engages. Values stay in request-count units.
std::vector<double> PeriodicDemandSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> vals(n);
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    vals[i] = 400.0 + 180.0 * std::sin(2.0 * M_PI * t / 2880.0) +
              60.0 * std::sin(2.0 * M_PI * t / 120.0) + rng.Normal(0.0, 2.0);
  }
  return vals;
}

// Jacobi-vs-subspace SSA training comparison at control-loop scale: dense
// Jacobi Fit vs subspace Fit (cold) vs warm Refit on the same series, with
// the forecast divergence between the paths. forecast_test checks the quick
// geometry (n = 1024, L = 256): the fast path engages cold and warm and
// agrees with Jacobi within 1e-6.
void RunSsaFastPathSection() {
  const std::vector<size_t> windows =
      QuickMode() ? std::vector<size_t>{256} : std::vector<size_t>{256, 384};

  std::printf("\n--- SSA training fast path (old dense Jacobi vs subspace) "
              "--------\n");
  std::printf("%-8s %-6s %10s %10s %10s %8s %8s %12s\n", "window", "n",
              "jacobi", "cold", "refit", "cold-x", "warm-x", "max-rel-diff");

  for (size_t window : windows) {
    const size_t n = QuickMode() ? 4 * window : 8 * window;
    const size_t shift = 2;
    const std::vector<double> vals = PeriodicDemandSeries(n + shift, 9);
    const TimeSeries first(
        0.0, 30.0, std::vector<double>(vals.begin(), vals.end() - shift));
    const TimeSeries second(30.0 * static_cast<double>(shift), 30.0,
                            std::vector<double>(vals.begin() + shift,
                                                vals.end()));

    SsaForecaster::Options options;
    options.window = window;

    // Old path: dense Jacobi over all L pairs.
    SsaForecaster::Options jopt = options;
    jopt.force_jacobi = true;
    SsaForecaster jacobi(jopt);
    WallTimer jacobi_timer;
    CheckOk(jacobi.Fit(first), "jacobi fit");
    const double jacobi_seconds = jacobi_timer.Seconds();

    // New path, cold: subspace iteration from the seeded block.
    SsaForecaster fast(options);
    WallTimer cold_timer;
    CheckOk(fast.Fit(first), "subspace fit");
    const double cold_seconds = cold_timer.Seconds();

    // New path, warm: the window slid forward two bins — Gram slide plus
    // warm-started subspace, the per-tick cost of the control loop.
    WallTimer refit_timer;
    CheckOk(fast.Refit(second), "refit");
    const double refit_seconds = refit_timer.Seconds();

    // Forecast divergence between the oracle and the fast path (same data:
    // compare the cold fits).
    SsaForecaster fast_first(options);
    CheckOk(fast_first.Fit(first), "subspace fit");
    const std::vector<double> jf = CheckOk(jacobi.Forecast(120), "forecast");
    const std::vector<double> sf =
        CheckOk(fast_first.Forecast(120), "forecast");
    double max_rel_diff = 0.0;
    for (size_t i = 0; i < jf.size(); ++i) {
      max_rel_diff = std::max(max_rel_diff, std::fabs(sf[i] - jf[i]) /
                                                std::max(1.0, std::fabs(jf[i])));
    }

    std::printf("%-8zu %-6zu %9.3fs %9.3fs %9.3fs %7.1fx %7.1fx %12.3e\n",
                window, n, jacobi_seconds, cold_seconds, refit_seconds,
                jacobi_seconds / std::max(1e-9, cold_seconds),
                jacobi_seconds / std::max(1e-9, refit_seconds), max_rel_diff);
  }
}

}  // namespace

int main() {
  using namespace ipool;
  using namespace ipool::bench;
  PrintHeader("Figure 6: training time vs input data size",
              "Paper: SSA+ is slightly slower than SSA and ~200x faster than "
              "mWDN/TST/InceptionTime.");

  const std::vector<double> days = QuickMode()
                                       ? std::vector<double>{0.25, 0.5}
                                       : std::vector<double>{0.25, 0.5, 1.0};
  const std::vector<ModelKind> models = {
      ModelKind::kSsa, ModelKind::kSsaPlus, ModelKind::kMwdn, ModelKind::kTst,
      ModelKind::kInceptionTime};

  // Paper training protocol (scaled): fixed 15 epochs (no early stop),
  // dense window sampling — Fig 6 measures the cost of a full training run.
  obs::MetricsRegistry registry;
  ForecastParams params;
  params.obs.metrics = &registry;
  params.window = 96;
  params.horizon = 48;
  params.epochs = QuickMode() ? 3 : 15;
  params.early_stopping = false;
  params.stride = 4;
  params.batch_size = 8;
  params.seed = 3;

  std::printf("\n%-12s", "bins");
  for (ModelKind m : models) std::printf(" %12s", ModelKindToString(m).c_str());
  std::printf("\n");

  std::vector<TimeSeries> histories;
  for (double d : days) {
    WorkloadConfig workload = RegionNodeProfile(Region::kEastUs2,
                                                NodeSize::kMedium, 41);
    workload.duration_days = d;
    auto generator = CheckOk(DemandGenerator::Create(workload), "workload");
    histories.push_back(generator.GenerateBinned());
  }
  std::vector<std::vector<double>> times(days.size(),
                                         std::vector<double>(models.size()));
  for (size_t di = 0; di < days.size(); ++di) {
    std::printf("%-12zu", histories[di].size());
    for (size_t mi = 0; mi < models.size(); ++mi) {
      auto forecaster = CheckOk(CreateForecaster(models[mi], params), "create");
      WallTimer timer;
      CheckOk(forecaster->Fit(histories[di]), "fit");
      times[di][mi] = timer.Seconds();
      std::printf(" %11.3fs", times[di][mi]);
    }
    std::printf("\n");
  }
  // Speedup of SSA+ over the slowest deep model at the largest size.
  const size_t last = days.size() - 1;
  double slowest_deep = 0.0;
  for (size_t mi = 2; mi < models.size(); ++mi) {
    slowest_deep = std::max(slowest_deep, times[last][mi]);
  }
  std::printf("\nAt %zu bins: SSA+ trains %.0fx faster than the slowest deep "
              "model (paper: ~200x,\nwith full-size deep models; ours are "
              "deliberately small), and stays near-flat as\ndata grows while "
              "the deep models scale linearly or worse.\n",
              static_cast<size_t>(days[last] * 2880), slowest_deep /
                  std::max(1e-9, times[last][1]));
  RunSsaFastPathSection();

  std::printf("\n");
  PrintPhaseBreakdown(registry);
  return 0;
}
