#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "bench/suite/suite.h"
#include "exec/thread_pool.h"

namespace ipool::bench::suite {

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void WorkloadResult::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

CpuLayout CpuLayout::Detect() {
  CpuLayout layout;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) layout.allowed.push_back(cpu);
    }
  }
  if (layout.allowed.empty()) layout.allowed.push_back(0);
  const size_t n = layout.allowed.size();
  const size_t half_up = (n + 1) / 2;
  layout.exec_threads = half_up;
  layout.gen_threads = std::max<size_t>(1, n / 2);
  layout.connections = std::min<size_t>(4, n);
  if (n >= 4) {
    layout.pinned = true;
    layout.server.assign(layout.allowed.begin(),
                         layout.allowed.begin() + static_cast<long>(half_up));
    layout.client.assign(layout.allowed.begin() + static_cast<long>(half_up),
                         layout.allowed.end());
    layout.tick = {layout.client.front()};
    layout.fleet_client.assign(layout.client.begin() + 1, layout.client.end());
  }
  return layout;
}

bool PinCurrentThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return true;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

void PinWorkers(exec::ThreadPool* pool, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  // One task per worker, each held until all have started, so every worker
  // runs exactly one of them.
  const size_t workers = pool->num_threads();
  std::mutex mu;
  std::condition_variable all_started;
  size_t started = 0;
  bool ok = true;
  for (size_t i = 0; i < workers; ++i) {
    pool->Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ok = PinCurrentThread({cpus[started++ % cpus.size()]}) && ok;
      all_started.notify_all();
      all_started.wait(lock, [&] { return started == workers; });
    });
  }
  pool->Wait();
  if (!ok) {
    std::fprintf(stderr, "cannot pin exec workers to CPUs %s\n",
                 CpuListString(cpus).c_str());
    std::exit(1);
  }
}

std::string CpuListString(const std::vector<int>& cpus) {
  std::string out;
  for (size_t i = 0; i < cpus.size();) {
    size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!out.empty()) out += ",";
    out += std::to_string(cpus[i]);
    if (j > i) out += "-" + std::to_string(cpus[j]);
    i = j + 1;
  }
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi]) || lo == hi) return values[hi];
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

void SleepSeconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

bool WriteTraceFile(const std::string& dir, const std::string& name,
                    const std::string& text) {
  // mkdir -p, one component at a time.
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos == dir.size() || dir[pos] == '/') {
      const std::string prefix = dir.substr(0, pos);
      if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
  }
  const std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ipool::bench::suite
