// Shared pieces of the repository benchmark (ipool_bench): options, the
// metric report, the CPU layout that keeps server threads and load
// generator threads on disjoint cores, and small statistics helpers.
//
// The four workloads (serve_read.cc, fleet.cc, offline_eval.cc) each return
// a WorkloadResult; ipool_bench.cc prints it and the provenance record.
#ifndef IPOOL_BENCH_SUITE_SUITE_H_
#define IPOOL_BENCH_SUITE_SUITE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ipool::exec {
class ThreadPool;
}  // namespace ipool::exec

namespace ipool::bench::suite {

/// Measured time of one run on the 4-core reference host, and of a --smoke
/// run. Each workload turns it into a fixed amount of work (steps,
/// repetitions, windows), never into a deadline, so two builds compared
/// with each other do the same work. BENCHMARK.json's run_seconds matches.
inline constexpr double kRunSeconds = 15.0;
inline constexpr double kSmokeSeconds = 1.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Report the per-layer metrics of a traced pass instead of the
  /// end-to-end ones (see TwoPasses).
  bool trace = false;
  /// Where the traced pass writes spans.jsonl, tasks.jsonl and layers.json.
  std::string trace_dir;
  /// Shrinks every workload to about two seconds; every check still runs.
  bool smoke = false;
};

/// Named metrics in insertion order. Setting a name twice overwrites it.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// A full traced run makes an untraced pass first (the end-to-end metrics
/// and the tracing-overhead baseline), then the traced pass, each with half
/// the budget. Every other run makes one pass, traced when asked.
inline bool TwoPasses(const Options& options) {
  return options.trace && !options.smoke;
}

/// Measured time of the whole run, and of each of its passes.
inline double RunBudget(const Options& options) {
  return options.smoke ? kSmokeSeconds : kRunSeconds;
}
inline double PassBudget(const Options& options) {
  return TwoPasses(options) ? RunBudget(options) / 2 : RunBudget(options);
}

struct WorkloadResult {
  Report end_to_end;
  Report per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Every correctness check passed.
  bool correct = true;
  /// Human-readable reasons for `correct == false`.
  std::vector<std::string> errors;

  void Fail(const std::string& why);
};

/// Which CPUs run what. With at least 4 allowed CPUs the first half runs
/// the server's event loop and exec workers and the second half runs the
/// load generator, except that on the fleet workloads the first client CPU
/// is the tick CPU; with fewer, nothing is pinned.
struct CpuLayout {
  std::vector<int> allowed;
  std::vector<int> server;  ///< empty when unpinned
  std::vector<int> client;  ///< empty when unpinned
  /// The thread calling TickOnce, alone (empty when unpinned). ParallelFor
  /// runs chunks on its caller as well as on the workers, so the tick has
  /// ceil(n/2) + 1 executors; sharing the server CPUs, the caller stacked
  /// on one worker's CPU while the other idled, and step times swung 2x.
  std::vector<int> tick;
  /// The fleet workloads' generator CPUs: `client` without `tick`.
  std::vector<int> fleet_client;
  bool pinned = false;
  size_t exec_threads = 1;  ///< ceil(n/2) server-side exec workers
  size_t gen_threads = 1;   ///< at most floor(n/2) generator threads
  size_t connections = 1;   ///< at most n generator connections

  static CpuLayout Detect();
};

/// Restricts the calling thread to `cpus` (no-op when empty). Threads it
/// creates afterwards inherit the mask. Returns false on failure.
bool PinCurrentThread(const std::vector<int>& cpus);

/// Pins each worker of `pool` to one CPU of `cpus`, round robin (no-op when
/// empty). Within a shared mask the guest scheduler was seen to stack every
/// server thread on one CPU for minutes while its sibling idled (README.md,
/// "CPU layout and load"); one CPU per worker removes that mode. Exits 1
/// when a worker cannot be pinned.
void PinWorkers(exec::ThreadPool* pool, const std::vector<int>& cpus);

/// "0-1" style rendering for records.
std::string CpuListString(const std::vector<int>& cpus);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
/// +inf entries sort last, so failed requests count against the tail.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Seconds on the steady clock since the first call in this process.
double NowSeconds();
void SleepSeconds(double seconds);

/// Workload entry points.
WorkloadResult RunServeRead(const Options& options, const CpuLayout& layout);
WorkloadResult RunFleetTick(const Options& options, const CpuLayout& layout);
WorkloadResult RunFleetRetune(const Options& options,
                              const CpuLayout& layout);
WorkloadResult RunOfflineEval(const Options& options,
                              const CpuLayout& layout);

/// Writes `text` to `dir`/`name`, creating `dir`; false on failure.
bool WriteTraceFile(const std::string& dir, const std::string& name,
                    const std::string& text);

}  // namespace ipool::bench::suite

#endif  // IPOOL_BENCH_SUITE_SUITE_H_
