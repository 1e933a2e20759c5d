// Table 1 / §7.2: forecast MAE of the five models (SSA+, SSA, mWDN, TST,
// InceptionTime) on six datasets (two regions x three node sizes), 80/20
// train-test split, multi-step-ahead prediction.
//
// Paper (Table 1): mWDN best on average (4.59), then IncpT (4.73), TST
// (4.79), SSA+ (4.91), SSA worst (5.78). Absolute MAEs depend on the traces;
// the reproduction targets the *ordering*: deep models and the hybrid beat
// plain SSA on average, and busier datasets (Small node pools, West US 2)
// have larger errors.
#include <map>

#include "bench/bench_util.h"
#include "forecast/forecaster.h"

int main() {
  using namespace ipool;
  using namespace ipool::bench;
  PrintHeader("Table 1: model comparison (MAE, lower is better)",
              "Paper averages: mWDN 4.59 < IncpT 4.73 < TST 4.79 < SSA+ 4.91 "
              "< SSA 5.78.");

  const bool quick = QuickMode();
  // Paper: 14 days of history, 1200-step horizon, window 150. Scaled to the
  // single-core budget: 2 days (1 in quick mode), 240-step eval horizon,
  // window 96.
  const double days = quick ? 1.0 : 2.0;
  const size_t eval_bins = quick ? 120 : 240;

  const std::vector<std::pair<Region, NodeSize>> datasets = {
      {Region::kWestUs2, NodeSize::kSmall}, {Region::kEastUs2, NodeSize::kSmall},
      {Region::kWestUs2, NodeSize::kMedium}, {Region::kEastUs2, NodeSize::kMedium},
      {Region::kWestUs2, NodeSize::kLarge}, {Region::kEastUs2, NodeSize::kLarge},
  };
  const std::vector<ModelKind> models = {
      ModelKind::kSsaPlus, ModelKind::kSsa, ModelKind::kMwdn, ModelKind::kTst,
      ModelKind::kInceptionTime};

  ForecastParams params;
  params.window = 96;
  params.horizon = 48;
  params.epochs = quick ? 2 : 4;
  params.stride = quick ? 32 : 16;
  params.batch_size = 8;
  params.alpha_prime = 0.5;  // symmetric: Table 1 measures pure accuracy
  params.seed = 7;

  // Per-dataset train/truth windows, generated once up front.
  struct Dataset {
    std::string label;
    TimeSeries train;
    std::vector<double> truth;
  };
  std::vector<Dataset> prepared;
  uint64_t seed = 100;
  for (const auto& [region, size] : datasets) {
    WorkloadConfig workload = RegionNodeProfile(region, size, seed++);
    workload.duration_days = days;
    auto generator = CheckOk(DemandGenerator::Create(workload), "workload");
    TimeSeries all = generator.GenerateBinned();
    // 80/20 split; evaluate the first eval_bins of the test window.
    auto [train, test] = all.Split(0.8);
    const size_t horizon = std::min(eval_bins, test.size());
    std::vector<double> truth(test.values().begin(),
                              test.values().begin() + static_cast<ptrdiff_t>(horizon));
    prepared.push_back({RegionToString(region) + " / " + NodeSizeToString(size),
                        std::move(train), std::move(truth)});
  }

  // One dataset x model cell: fit, forecast, score.
  auto eval_cell = [&](size_t di, size_t mi) {
    const Dataset& d = prepared[di];
    auto forecaster = CheckOk(CreateForecaster(models[mi], params), "create");
    CheckOk(forecaster->Fit(d.train), "fit");
    auto prediction = CheckOk(forecaster->Forecast(d.truth.size()), "forecast");
    return std::pair<double, double>(CheckOk(Mae(d.truth, prediction), "mae"),
                                     CheckOk(Rmse(d.truth, prediction), "rmse"));
  };

  // The paper reports both MAE and RMSE; collect both per cell.
  std::map<ModelKind, double> total_mae;
  std::map<ModelKind, double> total_rmse;
  std::vector<std::string> row_labels;
  std::vector<std::vector<double>> mae_rows;
  std::vector<std::vector<double>> rmse_rows;
  for (size_t di = 0; di < prepared.size(); ++di) {
    row_labels.push_back(prepared[di].label);
    mae_rows.emplace_back();
    rmse_rows.emplace_back();
    for (size_t mi = 0; mi < models.size(); ++mi) {
      const auto [mae, rmse] = eval_cell(di, mi);
      total_mae[models[mi]] += mae;
      total_rmse[models[mi]] += rmse;
      mae_rows.back().push_back(mae);
      rmse_rows.back().push_back(rmse);
    }
  }

  auto print_table = [&](const char* metric,
                         const std::vector<std::vector<double>>& rows,
                         std::map<ModelKind, double>& totals) {
    std::printf("\n%s\n%-22s", metric, "Dataset");
    for (ModelKind m : models) {
      std::printf(" %8s", ModelKindToString(m).c_str());
    }
    std::printf("\n");
    for (size_t r = 0; r < rows.size(); ++r) {
      std::printf("%-22s", row_labels[r].c_str());
      for (double v : rows[r]) std::printf(" %8.2f", v);
      std::printf("\n");
    }
    std::printf("%-22s", "Average");
    for (ModelKind m : models) {
      std::printf(" %8.2f", totals[m] / static_cast<double>(datasets.size()));
    }
    std::printf("\n");
  };
  print_table("MAE (lower is better):", mae_rows, total_mae);
  print_table("RMSE (lower is better):", rmse_rows, total_rmse);

  std::printf("\nExpected orderings: (1) trainable models (mWDN/TST/IncpT/SSA+)"
              " <= plain SSA on\naverage; (2) Small-node (busiest) datasets "
              "have the largest MAE, Large the smallest;\n(3) West US 2 "
              "(noisier) >= East US 2 at equal node size.\n");
  return 0;
}
