// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints context lines, every metric by name and unit, and as the last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when a correctness check failed (the result is still printed)
// and 2 on bad arguments (no result).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (const auto& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  perfbench::WorkloadSpec spec =
      perfbench::MakeWorkload(args.workload, args.seed, args.seconds);
  if (spec.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    Usage();
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "window_ticks=%zu\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, spec.window_ticks);
  std::printf("hardware_threads: %u\n", std::thread::hardware_concurrency());
  std::fflush(stdout);

  const auto t0 = perfbench::WallClock::now();
  perfbench::RunResult r = spec.client_scan
                               ? perfbench::RunClientScan(spec, args)
                               : perfbench::RunGenerated(spec, args);
  r.Info("run_seconds", std::to_string(perfbench::SecondsSince(t0)));

  for (const auto& [key, value] : r.info) {
    std::printf("%s: %s\n", key.c_str(), value.c_str());
  }
  for (const auto& m : r.metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& v : r.violation_samples) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  if (r.violations > 0) {
    std::printf("correctness: FAILED (%llu violations)\n",
                static_cast<unsigned long long>(r.violations));
  }

  std::string json = "{\"correct\": ";
  json += r.violations == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : r.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.violations == 0 ? 0 : 1;
}
