// Shared helpers for the bench programs.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/cluster_sim.h"

namespace abase {
namespace bench {

inline void PrintHeader(const std::string& title) {
  std::printf("\n=============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("=============================================================\n");
}

/// Median of a sample set (sorts a copy; even counts take the mean of
/// the middle pair). Perf benches report the median of N repetitions so
/// one noisy run — a CI neighbor, a page-cache miss — does not define
/// the trend point.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

/// Resolves an output path at the repo root when the build system
/// provides it (ABASE_REPO_ROOT), else falls back to the working
/// directory. Benches run from the build tree, but trend records are
/// committed at the repo root.
inline std::string RepoRootPath(const std::string& filename) {
#ifdef ABASE_REPO_ROOT
  return std::string(ABASE_REPO_ROOT) + "/" + filename;
#else
  return filename;
#endif
}

/// Sub-tick latency percentile summary of a tick window, from the
/// timed-settle per-tick histogram estimates (TenantTickMetrics::
/// latency_p50/p95/p99). Each tick's estimate is weighted by that tick's
/// sample count, so idle ticks don't dilute the summary. All zeros when
/// the latency subsystem is disabled (SimOptions::latency.enabled).
struct WindowPercentiles {
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
};

inline WindowPercentiles PercentilesOver(
    const std::vector<sim::TenantTickMetrics>& history, size_t from,
    size_t to) {
  WindowPercentiles w;
  if (to > history.size()) to = history.size();
  double n = 0;
  for (size_t i = from; i < to; i++) {
    const auto& m = history[i];
    if (m.latency_count == 0 || m.latency_p99 <= 0) continue;
    double c = static_cast<double>(m.latency_count);
    w.p50_us += c * m.latency_p50;
    w.p95_us += c * m.latency_p95;
    w.p99_us += c * m.latency_p99;
    n += c;
  }
  if (n > 0) {
    w.p50_us /= n;
    w.p95_us /= n;
    w.p99_us /= n;
  }
  return w;
}

}  // namespace bench
}  // namespace abase
