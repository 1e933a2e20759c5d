// ipool_bench: the repository benchmark. Runs one workload in this process
// and prints `workload metric value unit` lines, one provenance record and,
// last, the result line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (see README.md and BENCHMARK.json at the repository root).
//
//   ipool_bench --workload serve-read|fleet-tick|fleet-retune|offline-eval
//               --seed N [--trace 0|1] [--trace-dir DIR] [--smoke]
//               [--commit SHA]
//
// A run measures kRunSeconds (suite.h) of work, or kSmokeSeconds with
// --smoke.
//
// Exits 1 when a correctness check fails, and 2 on a usage error or when a
// full (non-smoke) run is attempted on a build that is not Release.
#include <cpuid.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/suite/suite.h"
#include "linalg/simd_kernels.h"

#ifndef IPOOL_BENCH_BUILD_TYPE
#define IPOOL_BENCH_BUILD_TYPE "unknown"
#endif

namespace ipool::bench::suite {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Report& report) {
  std::string out = "{";
  for (const Report::Metric& m : report.metrics()) {
    if (out.size() > 1) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ipool_bench: %s\nusage: ipool_bench --workload "
               "serve-read|fleet-tick|fleet-retune|offline-eval --seed N "
               "[--trace 0|1] [--trace-dir DIR] [--smoke] [--commit SHA]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");
  if (options.trace_dir.empty()) {
    options.trace_dir = "bench_trace/" + options.workload;
  }
  const std::string build_type = IPOOL_BENCH_BUILD_TYPE;
  if (!options.smoke && build_type != "Release") {
    return Usage(("full runs need a Release build, this is " + build_type)
                     .c_str());
  }

  WorkloadResult (*run)(const Options&, const CpuLayout&) = nullptr;
  if (options.workload == "serve-read") {
    run = RunServeRead;
  } else if (options.workload == "fleet-tick") {
    run = RunFleetTick;
  } else if (options.workload == "fleet-retune") {
    run = RunFleetRetune;
  } else if (options.workload == "offline-eval") {
    // The offline grids are the repository's quick Table 1 / Fig 5 scale.
    setenv("IPOOL_QUICK", "1", 1);
    run = RunOfflineEval;
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  const CpuLayout layout = CpuLayout::Detect();
  const WorkloadResult result = run(options, layout);
  // A traced run also measured the end-to-end metrics in its untraced pass;
  // both sets are printed, the result line carries the requested one.
  Report all = result.end_to_end;
  for (const Report::Metric& m : result.per_layer.metrics()) {
    all.Set(m.name, m.value, m.unit);
  }
  const Report& report = options.trace ? result.per_layer : result.end_to_end;
  if (options.trace &&
      !WriteTraceFile(options.trace_dir, "layers.json",
                      MetricsJson(result.per_layer) + "\n")) {
    std::fprintf(stderr, "cannot write %s/layers.json\n",
                 options.trace_dir.c_str());
  }

  for (const Report::Metric& m : all.metrics()) {
    std::printf("%s %s %.17g %s\n", options.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::string errors = "[";
  for (const std::string& e : result.errors) {
    if (errors.size() > 1) errors += ", ";
    errors += JsonString(e);
  }
  errors += "]";
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %s, \"smoke\": %s, \"nproc\": %zu, \"allowed_cpus\": %s, "
      "\"pinned\": %s, \"server_cpus\": %s, \"client_cpus\": %s, "
      "\"tick_cpus\": %s, "
      "\"exec_threads\": %zu, \"gen_threads\": %zu, \"connections\": %zu, "
      "\"cpu_model\": %s, \"isa\": %s, \"build_type\": %s, \"commit\": %s, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"errors\": %s, \"metrics\": %s}}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(RunBudget(options)).c_str(), options.trace ? "true" : "false",
      options.smoke ? "true" : "false", layout.allowed.size(),
      JsonString(CpuListString(layout.allowed)).c_str(),
      layout.pinned ? "true" : "false",
      JsonString(CpuListString(layout.server)).c_str(),
      JsonString(CpuListString(layout.client)).c_str(),
      JsonString(CpuListString(layout.tick)).c_str(), layout.exec_threads,
      layout.gen_threads, layout.connections, JsonString(CpuModel()).c_str(),
      JsonString(simd::IsaName(simd::ActiveIsa())).c_str(),
      JsonString(build_type).c_str(), JsonString(commit).c_str(),
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), errors.c_str(),
      MetricsJson(all).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(report).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace ipool::bench::suite

int main(int argc, char** argv) {
  return ipool::bench::suite::Main(argc, argv);
}
