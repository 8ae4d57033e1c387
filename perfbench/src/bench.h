// Shared declarations of the repository benchmark (perfbench).
//
// One run = one workload, one seed, one process. The untraced run prints
// the end-to-end metrics; the traced run (--trace 1) prints the
// per-layer metrics. Everything is measured from outside the library:
// clock pairs around public calls (process CPU time for the end-to-end
// timings, steady_clock for the per-layer ones) plus the public stats
// accessors of each layer.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/abase.h"

namespace perfbench {

using WallClock = std::chrono::steady_clock;

inline double SecondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/// CPU time of the whole process (every thread, user + system), in
/// seconds. The end-to-end timings use it instead of wall time: on a
/// shared host the wall clock also counts the time the CPU is taken away
/// (hypervisor steal, other processes), which made runs of the same code
/// spread by a quarter, while a KVM guest kernel leaves steal time out
/// of task CPU time. Data-plane workers block on condition variables,
/// so idle workers add nothing.
inline double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  Metric(std::string n, double v, std::string u)
      : name(std::move(n)), value(v), unit(std::move(u)) {}
  std::string name;
  double value;
  std::string unit;
};

/// Named metrics in insertion order (the order they are printed in).
using Metrics = std::vector<Metric>;

/// Everything one run reports.
struct RunResult {
  uint64_t attempted = 0;
  /// Failed operations: data-plane errors, unavailable, queue timeouts,
  /// lost requests and correctness violations (throttles excluded).
  uint64_t failed = 0;
  uint64_t violations = 0;  ///< Correctness-check failures (in `failed`).
  std::vector<std::string> violation_samples;  ///< The first few, logged.
  Metrics metrics;
  /// Context lines printed as "key: value" ahead of the result.
  std::vector<std::pair<std::string, std::string>> info;

  void Violation(const std::string& what) {
    violations++;
    failed++;
    if (violation_samples.size() < 10) violation_samples.push_back(what);
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
};

/// One tenant of a workload.
struct TenantSpec {
  abase::meta::TenantConfig config;
  abase::sim::WorkloadProfile profile;
  uint64_t preload_keys = 0;
  uint64_t preload_value_bytes = 256;
  /// Stays within its quota: counted by admit_ratio and the virt_*
  /// percentiles of tenant_mix (the over-quota tenants are meant to be
  /// throttled).
  bool within_quota = true;
};

/// A workload: the cluster it builds and the traffic it runs.
struct WorkloadSpec {
  std::string name;
  abase::ClusterOptions options;
  size_t nodes = 16;
  std::vector<TenantSpec> tenants;
  /// Closed-loop Client sessions instead of generated open-loop traffic.
  bool client_scan = false;
  size_t sessions_per_tenant = 0;
  size_t session_depth = 0;
  size_t keys_per_session = 0;
  /// Set-ups an untraced run times before its window (setup_s is their
  /// median; the first runs in a fresh process and is the slowest).
  int setup_reps = 5;
  /// Ticks per wall second of this workload on a 4-vCPU reference host.
  /// A run times a fixed number of ticks derived from --seconds with it
  /// (see MakeWorkload), so same-seed runs do the same work whatever the
  /// host speed, and a faster program finishes sooner.
  double ticks_per_second = 30;
  /// The timed window after warm-up. Every metric of a run covers these
  /// ticks; the simulated-time metrics and the history digest cover
  /// warm-up + window.
  size_t window_ticks = 200;
};

/// Ticks every run makes before timing starts (caches fill, queues
/// settle).
constexpr size_t kWarmupTicks = 20;

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// The named workload for `seed` (the seed drives every request stream
/// and service-time draw; tenant shapes are fixed) with a window of
/// about `seconds` on the reference host, at least 200 ticks so p95 has
/// ten samples beyond it. Empty name if unknown.
WorkloadSpec MakeWorkload(const std::string& name, uint64_t seed,
                          double seconds);

/// Wall time of the registration calls of one set-up.
struct SetupTiming {
  double add_tenant_s = 0;
  size_t tenants = 0;
  double preload_s = 0;
  uint64_t preload_keys = 0;
};

/// Builds the workload's cluster through the public API: pool, tenants,
/// preload and workload attach. Client sessions are opened by the
/// client_scan runner.
std::unique_ptr<abase::Cluster> BuildCluster(const WorkloadSpec& spec,
                                             SetupTiming* timing);

/// Runs an open-loop generated workload (tenant_mix).
RunResult RunGenerated(const WorkloadSpec& spec, const Args& args);

/// Runs the closed-loop Client workload (client_scan).
RunResult RunClientScan(const WorkloadSpec& spec, const Args& args);

// -- Shared helpers (run.cc) ----------------------------------------------

/// Peak RSS of the process in MB.
double PeakRssMb();

std::string Hex(uint64_t v);

// -- Per-layer measurement (layers.cc) ------------------------------------

/// Cumulative public counters of every layer, read between ticks.
struct LayerCounters {
  // proxy (Proxy::stats, summed over every proxy of every tenant)
  uint64_t proxy_requests = 0;
  uint64_t proxy_hits = 0;
  uint64_t proxy_throttled = 0;
  uint64_t proxy_forwarded = 0;
  uint64_t proxy_refresh = 0;
  double proxy_admitted_ru = 0;
  double proxy_charged_ru = 0;
  // cache (PrefixTreeStore and SaLruCache stats)
  uint64_t pcache_evictions = 0;
  uint64_t pcache_scan_hits = 0;
  uint64_t pcache_scan_misses = 0;
  uint64_t pcache_scans_dropped = 0;
  uint64_t ncache_hits = 0;
  uint64_t ncache_misses = 0;
  uint64_t ncache_evictions = 0;
  // storage (LsmEngine::stats over every hosted replica)
  uint64_t lsm_gets = 0;
  uint64_t lsm_memtable_hits = 0;
  uint64_t lsm_bloom_filtered = 0;
  uint64_t lsm_block_reads = 0;
  uint64_t lsm_flushes = 0;
  uint64_t lsm_flushed_bytes = 0;
  uint64_t lsm_compactions = 0;
  uint64_t lsm_compaction_write_bytes = 0;
  uint64_t lsm_repl_applied = 0;
  uint64_t lsm_primary_puts = 0;
};

LayerCounters ReadCounters(abase::sim::ClusterSim& sim,
                            const WorkloadSpec& spec);

/// DataNode::TakeTickStats summed over nodes and the ticks it was
/// taken after.
struct NodeTotals {
  uint64_t ticks = 0;
  uint64_t submitted = 0;
  uint64_t rejected_quota = 0;
  uint64_t completed = 0;
  uint64_t disk_served = 0;
  uint64_t rule3_deferrals = 0;
  uint64_t io_scheduled = 0;

  /// Drains every node's stats; `count` false discards them.
  void Take(abase::sim::ClusterSim& sim, bool count);
};

/// Per-layer metrics of a traced window (counter deltas + node totals +
/// stage timing divided by the requests settled in traced ticks).
struct TracedWindow {
  LayerCounters begin;
  LayerCounters end;
  /// Taken once, after the window: the node.* shares cover warm-up +
  /// window of an execution that nothing perturbed.
  NodeTotals nodes;
  /// Taken after every tick of a separate pass (see SchedPass): sched.*.
  NodeTotals sched;
  std::vector<std::pair<std::string, uint64_t>> stage_nanos;
  uint64_t settled_traced = 0;
  double traced_s = 0;
  uint64_t settled_untraced = 0;
  double untraced_s = 0;
  uint64_t reads = 0;
  uint64_t hedged = 0;
  uint64_t hedge_wins = 0;
};

void AddWindowMetrics(const TracedWindow& w, abase::sim::ClusterSim& sim,
                      const WorkloadSpec& spec, Metrics* out);

/// Core-layer metrics measured by the caller (client_scan's own
/// sessions) or by a standalone Cluster replay (generated workloads).
struct CoreTiming {
  double submit_s = 0;
  uint64_t submits = 0;
  double step_s = 0;
  uint64_t resolved = 0;
  uint64_t resolve_ticks_sum = 0;
};

/// Standalone Cluster replay of the workload's first tenant stream
/// through Client::Submit + Cluster::Step.
CoreTiming ReplayCore(const WorkloadSpec& spec);

void AddCoreMetrics(const CoreTiming& c, Metrics* out);
/// sched.* per-tick WFQ stats of a separate pass (see SchedPass).
void AddSchedMetrics(const NodeTotals& sched, Metrics* out);
void AddSetupMetrics(const SetupTiming& t, Metrics* out);

/// The timed *_ns metrics: the workload's request stream replayed
/// against standalone PrefixTreeStore, SaLruCache, LsmEngine, WfqQueue
/// and KeyArena instances sized as the workload configures them.
void AddReplayMetrics(const WorkloadSpec& spec, Metrics* out,
                      RunResult* result);

}  // namespace perfbench
