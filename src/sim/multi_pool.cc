#include "sim/multi_pool.h"

#include <memory>

#include "common/strings.h"
#include "sim/event_engine.h"
#include "sim/live_pool.h"

namespace ipool {

Result<MultiPoolSimulator> MultiPoolSimulator::Create(
    std::vector<PoolClass> classes, bool allow_upgrade) {
  if (classes.empty()) {
    return Status::InvalidArgument("need at least one pool class");
  }
  for (const PoolClass& c : classes) {
    IPOOL_RETURN_NOT_OK(c.sim.Validate());
    if (c.cores_per_cluster <= 0.0) {
      return Status::InvalidArgument("cores_per_cluster must be positive");
    }
  }
  return MultiPoolSimulator(std::move(classes), allow_upgrade);
}

std::vector<std::vector<double>> SplitByClass(
    const std::vector<SizedRequest>& requests, size_t num_classes) {
  std::vector<std::vector<double>> split(num_classes);
  for (const SizedRequest& r : requests) {
    if (r.size_class < num_classes) split[r.size_class].push_back(r.time);
  }
  return split;
}

Result<MultiPoolResult> MultiPoolSimulator::Run(
    const std::vector<SizedRequest>& requests,
    const std::vector<std::vector<int64_t>>& schedules,
    double interval_seconds, double horizon_seconds) const {
  const size_t num_classes = classes_.size();
  if (schedules.size() != num_classes) {
    return Status::InvalidArgument(
        StrFormat("%zu schedules for %zu pool classes", schedules.size(),
                  num_classes));
  }
  double previous = 0.0;
  bool first = true;
  for (const SizedRequest& r : requests) {
    if (r.size_class >= num_classes) {
      return Status::InvalidArgument(
          StrFormat("request at %g references class %zu of %zu", r.time,
                    r.size_class, num_classes));
    }
    if (!first && r.time < previous) {
      return Status::InvalidArgument("requests must be sorted by time");
    }
    previous = r.time;
    first = false;
  }
  const std::vector<std::vector<double>> per_class_times =
      SplitByClass(requests, num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    IPOOL_RETURN_NOT_OK(ValidateRunInputs(per_class_times[c], schedules[c],
                                          interval_seconds, horizon_seconds));
  }

  // One shared virtual clock: all pools, retargets and arrivals interleave.
  EventEngine engine;
  std::vector<std::unique_ptr<LivePool>> pools;
  for (size_t c = 0; c < num_classes; ++c) {
    pools.push_back(std::make_unique<LivePool>(&engine, classes_[c].sim,
                                               schedules[c][0]));
    pools.back()->InitialFill();
  }
  for (size_t c = 0; c < num_classes; ++c) {
    for (size_t i = 1; i < schedules[c].size(); ++i) {
      const double at = static_cast<double>(i) * interval_seconds;
      if (at > horizon_seconds) break;
      LivePool* pool = pools[c].get();
      const int64_t target = schedules[c][i];
      IPOOL_RETURN_NOT_OK(
          engine.Schedule(at, [pool, target] { pool->SetTarget(target); }));
    }
  }

  // Routing: own class first, then (optionally) larger classes, else queue
  // on-demand in the origin class.
  std::vector<int64_t> hits_per_class(num_classes, 0);
  int64_t upgrades = 0;
  const bool upgrade = allow_upgrade_;
  for (const SizedRequest& r : requests) {
    const size_t origin = r.size_class;
    IPOOL_RETURN_NOT_OK(engine.Schedule(
        r.time, [&, origin] {
          if (pools[origin]->TryAcquire()) {
            ++hits_per_class[origin];
            return;
          }
          if (upgrade) {
            for (size_t c = origin + 1; c < pools.size(); ++c) {
              if (pools[c]->TryAcquire()) {
                ++hits_per_class[origin];
                ++upgrades;
                return;
              }
            }
          }
          pools[origin]->QueueOnDemand(engine.now());
        }));
  }

  engine.RunUntil(horizon_seconds);
  for (auto& pool : pools) pool->Close();
  engine.RunAll();
  for (auto& pool : pools) pool->FinishAt(horizon_seconds);

  MultiPoolResult result;
  result.upgrades = upgrades;
  double wait_total = 0.0;
  for (size_t c = 0; c < num_classes; ++c) {
    std::vector<double> waits(static_cast<size_t>(hits_per_class[c]), 0.0);
    waits.insert(waits.end(), pools[c]->queued_waits().begin(),
                 pools[c]->queued_waits().end());
    SimResult sim = AssembleSimResult(
        pools[c]->stats(),
        static_cast<int64_t>(per_class_times[c].size()), hits_per_class[c],
        std::move(waits));
    result.total_requests += sim.total_requests;
    result.pool_hits += sim.pool_hits;
    wait_total += sim.total_wait_seconds;
    result.idle_core_seconds +=
        sim.idle_cluster_seconds * classes_[c].cores_per_cluster;
    result.per_pool.push_back(std::move(sim));
  }
  result.hit_rate = result.total_requests > 0
                        ? static_cast<double>(result.pool_hits) /
                              static_cast<double>(result.total_requests)
                        : 1.0;
  result.avg_wait_seconds =
      result.total_requests > 0
          ? wait_total / static_cast<double>(result.total_requests)
          : 0.0;
  return result;
}

}  // namespace ipool
