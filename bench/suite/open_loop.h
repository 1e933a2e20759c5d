// GetRecommendation load generator over raw nonblocking sockets.
//
// Open loop (rate_per_second > 0): each connection draws Poisson arrivals
// from its own seeded stream, and every request is timed from the moment it
// was DUE, not from when it was written. A server stall therefore shows up
// in the latency of every request that fell due during it, which a closed
// loop hides by simply sending less. A request due while the connection
// already has `window` requests in flight waits client-side (counted in
// backlog_max) and keeps its due time. Requests that fail, are shed, or
// are still unanswered when the drain times out count as +inf latency.
//
// Closed loop (rate_per_second == 0): every connection keeps exactly
// `window` requests in flight; used for saturation throughput.
//
// Each generator thread owns a disjoint subset of the connections and runs
// its own epoll loop. Pinned to `cpus` with `busy_poll` set it busy-polls;
// otherwise it sleeps between events.
#ifndef IPOOL_BENCH_SUITE_OPEN_LOOP_H_
#define IPOOL_BENCH_SUITE_OPEN_LOOP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace ipool::bench::suite {

struct LoadConfig {
  uint16_t port = 0;
  size_t connections = 4;
  size_t threads = 2;
  /// Generator threads are pinned here; empty leaves them unpinned.
  std::vector<int> cpus;
  /// Pinned threads poll instead of sleeping, so no wake-up latency lands
  /// in the latencies they measure, at the cost of keeping their CPUs busy.
  bool busy_poll = false;
  /// Total arrival rate over all connections; 0 selects the closed loop.
  double rate_per_second = 0.0;
  /// Per-connection cap on requests in flight.
  size_t window = 32;
  uint64_t seed = 1;
  /// Document keys; must outlive the generator.
  const std::vector<std::string>* keys = nullptr;
  /// Zipf exponent of key popularity (0 = uniform; keys[0] is hottest).
  double zipf_s = 0.0;
  /// When set, every response must byte-equal expected[key index];
  /// otherwise any non-empty OK payload is accepted. Must outlive the
  /// generator.
  const std::vector<std::string>* expected = nullptr;
};

struct LoadStats {
  /// Start of load to Stop().
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  /// OK responses whose bytes differed from the expected document.
  uint64_t mismatched = 0;
  /// Open loop: one entry per attempted request, +inf for failed ones.
  std::vector<double> latency_seconds;
  /// Open loop: how late the generator noticed each request was due.
  std::vector<double> lag_seconds;
  /// Open loop: most requests ever waiting client-side on one connection.
  size_t backlog_max = 0;
  /// Connect or socket errors (the run is invalid when nonzero).
  std::vector<std::string> errors;
};

/// Counts summed, samples concatenated, seconds summed.
LoadStats Merge(const std::vector<LoadStats>& parts);

/// One generator session of `seconds`, on connections of its own. Medians
/// over many such windows shrug off a burst of interference that a pooled
/// percentile would keep.
LoadStats RunWindow(const LoadConfig& config, double seconds);

class LoadGenerator {
 public:
  /// Connects and starts sending immediately.
  explicit LoadGenerator(const LoadConfig& config);
  /// Stops (if Stop was not called) and joins.
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Stops issuing new requests, drains in-flight ones (for up to 5 s),
  /// joins the threads and merges their statistics. Call once.
  LoadStats Stop();

 private:
  void ThreadMain(size_t thread_index);

  LoadConfig config_;
  std::vector<double> zipf_cdf_;
  double start_seconds_ = 0.0;
  std::atomic<bool> stop_{false};
  std::vector<LoadStats> per_thread_;
  std::vector<std::thread> threads_;
};

}  // namespace ipool::bench::suite

#endif  // IPOOL_BENCH_SUITE_OPEN_LOOP_H_
