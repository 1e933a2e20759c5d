// Multi-pool fleet — the paper's §9 future work: several live pools with
// different cluster configurations (small / medium / large) operated side by
// side. Each size class gets its own Intelligent Pooling pipeline sized from
// its own demand history; the fleet is compared against serving everyone
// from a single pool of the largest shape (the one-size-fits-all strawman
// that motivates multiple pools).
#include <algorithm>
#include <cstdio>

#include "common/strings.h"
#include "sim/multi_pool.h"
#include "solver/saa_optimizer.h"
#include "tsdata/smoothing.h"
#include "workload/demand_generator.h"

namespace {

using namespace ipool;

// Sized request stream: classes draw from independent demand processes with
// different volumes (small jobs dominate).
std::vector<SizedRequest> BuildFleetDemand(double days, uint64_t seed,
                                           std::vector<TimeSeries>* binned) {
  const double rates[] = {6.0, 2.5, 0.8};  // requests/min per class
  std::vector<SizedRequest> requests;
  for (size_t c = 0; c < 3; ++c) {
    WorkloadConfig config;
    config.duration_days = days;
    config.base_rate_per_minute = rates[c];
    config.hourly_spike_requests = 4.0 * rates[c];
    config.seed = seed + c;
    auto generator = DemandGenerator::Create(config);
    binned->push_back(generator->GenerateBinned());
    for (double t : generator->GenerateEvents()) {
      requests.push_back({t, c});
    }
  }
  std::sort(requests.begin(), requests.end(),
            [](const SizedRequest& a, const SizedRequest& b) {
              return a.time < b.time;
            });
  return requests;
}

}  // namespace

int main() {
  using namespace ipool;
  std::vector<TimeSeries> binned;
  std::vector<SizedRequest> all_requests =
      BuildFleetDemand(/*days=*/2.0, /*seed=*/777, &binned);

  // Day 2 only, for evaluation.
  const double day = 86400.0;
  std::vector<SizedRequest> day2;
  for (const SizedRequest& r : all_requests) {
    if (r.time >= day) day2.push_back({r.time - day, r.size_class});
  }
  const size_t day2_bins = 2880;

  std::vector<PoolClass> classes = {
      {"small  (1 node,  8 cores)", 8.0, {}},
      {"medium (3 nodes, 24 cores)", 24.0, {}},
      {"large  (8 nodes, 64 cores)", 64.0, {}},
  };
  for (auto& c : classes) {
    c.sim.creation_latency_mean_seconds = 90.0;
    c.sim.creation_latency_cv = 0.1;
    c.sim.seed = 3;
  }

  // Per-class pipelines sized from each class's own day-1 history: a daily
  // template (§4.2's periodic policy) from the SAA on the max-filtered day-1
  // history, one pool size per time-of-day slot, reused for day 2.
  SaaConfig saa;
  saa.alpha_prime = 0.1;
  saa.pool.tau_bins = 3;
  saa.pool.stableness_bins = 10;
  saa.pool.max_pool_size = 300;
  auto optimizer = SaaOptimizer::Create(saa);
  if (!optimizer.ok()) {
    std::fprintf(stderr, "optimize: %s\n",
                 optimizer.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<int64_t>> schedules;
  std::printf("Per-class recommendations (from each class's own history):\n");
  for (size_t c = 0; c < classes.size(); ++c) {
    // Eq 18 margin absorbs day-to-day realization noise.
    auto solved = optimizer->OptimizePeriodic(
        MaxFilter(binned[c].Slice(0, day2_bins), 10), day2_bins);
    if (!solved.ok()) {
      std::fprintf(stderr, "optimize: %s\n",
                   solved.status().ToString().c_str());
      return 1;
    }
    std::vector<int64_t> schedule = solved->pool_size_per_bin;
    schedule.resize(day2_bins, schedule.back());
    schedules.push_back(std::move(schedule));
    double mean = 0;
    for (int64_t n : schedules.back()) mean += static_cast<double>(n);
    std::printf("  %-28s avg target %.1f clusters\n", classes[c].name.c_str(),
                mean / static_cast<double>(day2_bins));
  }

  auto fleet = MultiPoolSimulator::Create(classes);
  auto fleet_result = fleet->Run(day2, schedules, 30.0, day + 600.0);
  if (!fleet_result.ok()) {
    std::fprintf(stderr, "fleet: %s\n", fleet_result.status().ToString().c_str());
    return 1;
  }
  // Same fleet with upgrade-on-miss routing: a drained class borrows a ready
  // cluster from the next larger class instead of going on-demand.
  auto upgrading = MultiPoolSimulator::Create(classes, /*allow_upgrade=*/true);
  auto upgrade_result = upgrading->Run(day2, schedules, 30.0, day + 600.0);

  // One-size-fits-all: a single large-cluster pool serves every class; its
  // schedule is the per-bin sum of the class schedules (same cluster count).
  std::vector<PoolClass> mono_class = {{"large-only", 64.0, classes[2].sim}};
  auto mono = MultiPoolSimulator::Create(mono_class);
  std::vector<int64_t> mono_schedule(day2_bins, 0);
  for (const auto& schedule : schedules) {
    for (size_t i = 0; i < day2_bins; ++i) mono_schedule[i] += schedule[i];
  }
  std::vector<SizedRequest> coerced = day2;
  for (auto& r : coerced) r.size_class = 0;
  auto mono_result =
      mono->Run(coerced, {mono_schedule}, 30.0, day + 600.0);

  const double core_hour = 3600.0;
  std::printf("\n%-28s %12s %12s %16s\n", "fleet policy", "hit rate",
              "avg wait(s)", "idle core-hours");
  std::printf("%-28s %11.1f%% %12.2f %16.1f\n", "3 right-sized pools",
              100.0 * fleet_result->hit_rate, fleet_result->avg_wait_seconds,
              fleet_result->idle_core_seconds / core_hour);
  std::printf("%-28s %11.1f%% %12.2f %16.1f\n",
              StrFormat("3 pools + upgrades (%ld)", upgrade_result->upgrades)
                  .c_str(),
              100.0 * upgrade_result->hit_rate,
              upgrade_result->avg_wait_seconds,
              upgrade_result->idle_core_seconds / core_hour);
  std::printf("%-28s %11.1f%% %12.2f %16.1f\n", "single large-only pool",
              100.0 * mono_result->hit_rate, mono_result->avg_wait_seconds,
              mono_result->idle_core_seconds / core_hour);
  std::printf("\nRight-sizing the pools cuts idle core-hours by %.0f%% at a "
              "comparable hit rate —\nthe case for the paper's future work "
              "of operating multiple pool configurations.\n",
              100.0 * (1.0 - fleet_result->idle_core_seconds /
                                 mono_result->idle_core_seconds));
  return 0;
}
