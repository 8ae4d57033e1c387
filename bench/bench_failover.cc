// Live failover: ticks-to-recover and error-window area vs replica count.
//
// One tenant under steady load loses the primary of partition 0 mid-run;
// the failure detector promotes a surviving replica (when one exists),
// the node later recovers via WAL replay and fails back. Swept over the
// tenant's replication factor:
//   replicas=1  no survivor to promote -> the partition is dark until
//               recovery completes (the availability cost of running
//               without replicas);
//   replicas>=2 the window collapses to the failure-detection delay.
//
// Reported per replica count: ticks-to-recover (last tick with any
// Unavailable resolution, relative to the failure tick), the error-window
// area (total Unavailable resolutions), and total redirect chases.
//
// A second sweep drives the replication-lag axis: a steady acknowledged
// write stream, a mid-run primary kill, recovery and failback — per
// `SimOptions::replication_lag_ticks`, reporting the acknowledged writes
// lost at failover (promotion report) and still lost after failback
// (client-measured: the divergent suffix is discarded by the resync).
//
// Gates (enforced by exit code):
//   * the replicas=3 run replayed under 2 and 4 data-plane workers must
//     reproduce the serial TenantTickMetrics history bit-for-bit;
//   * replicas>=2 must shrink the error window vs replicas=1;
//   * replication lag 0 must lose ZERO acknowledged writes, and the
//     lost-write window must grow monotonically with the lag.
//
// Writes BENCH_failover.json (overwritten per run; CI archives
// BENCH_*.json as artifacts).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/abase.h"
#include "sim/cluster_sim.h"

namespace abase {
namespace bench {
namespace {

constexpr size_t kWarmupTicks = 10;
constexpr size_t kFailTicks = 10;   ///< Failure -> recovery start.
constexpr size_t kAfterTicks = 10;  ///< Recovery start -> end of run.
constexpr int kCatchUpTicks = 2;

struct FailoverRun {
  int replicas = 1;
  int workers = 1;
  size_t ticks_to_recover = 0;
  uint64_t error_window_area = 0;  ///< Total Unavailable resolutions.
  uint64_t redirects = 0;
  uint64_t ok_total = 0;
  WindowPercentiles latency;  ///< Sub-tick micros over the whole run.
  std::vector<sim::TenantTickMetrics> history;
};

/// One point on the replication-lag axis: a steady acknowledged write
/// stream, a primary kill, recovery + failback, and the lost-write
/// accounting at both ends.
struct LagRun {
  int lag = 0;
  size_t acked_writes = 0;
  uint64_t lost_at_failover = 0;     ///< Promotion report accounting.
  uint64_t lost_after_failback = 0;  ///< Client-measured unreadable keys.
};

LagRun RunLagAxis(int lag) {
  ClusterOptions copts;
  copts.sim.seed = 271;
  copts.sim.failover_detection_ticks = 0;
  copts.sim.replication_lag_ticks = lag;
  // Keep executed re-replication out of this axis: the node comes back
  // and fails back, which is the path whose data loss we are measuring.
  copts.sim.re_replication_delay_ticks = 256;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(4);
  meta::TenantConfig cfg;
  cfg.id = 1;
  cfg.name = "lag-axis";
  cfg.tenant_quota_ru = 100000;
  cfg.num_partitions = 1;
  cfg.num_proxies = 2;
  cfg.num_proxy_groups = 1;
  cfg.replicas = 3;
  (void)cluster.CreateTenant(cfg, pool);
  // Reads must measure engine state, not proxy-cached copies.
  cluster.sim().SetProxyCacheEnabled(1, false);
  Client client = cluster.OpenClient(1);

  constexpr int kWriteTicks = 12;
  constexpr int kWritesPerTick = 4;
  std::vector<std::string> acked;
  for (int t = 0; t < kWriteTicks; t++) {
    std::vector<Command> batch;
    std::vector<std::string> keys;
    for (int i = 0; i < kWritesPerTick; i++) {
      std::string key = "w" + std::to_string(t) + "_" + std::to_string(i);
      keys.push_back(key);
      batch.push_back(Command::Set(key, "v"));
    }
    std::vector<Future<Reply>> futures = client.SubmitBatch(std::move(batch));
    cluster.Step();
    for (size_t i = 0; i < futures.size(); i++) {
      if (futures[i].ready() && (*futures[i]).ok()) acked.push_back(keys[i]);
    }
  }

  const NodeId victim = cluster.meta().PrimaryFor(1, 0);
  cluster.FailNode(victim);
  cluster.RunTicks(2);  // Crash lands; detection 0 promotes immediately.

  LagRun run;
  run.lag = lag;
  run.acked_writes = acked.size();
  if (cluster.sim().LastFailoverReport().has_value()) {
    run.lost_at_failover =
        cluster.sim().LastFailoverReport()->lost_acked_writes;
  }

  // Recovery + failback: the divergent acknowledged suffix is discarded
  // by the resync, so the loss persists into steady state.
  cluster.RecoverNode(victim, /*catch_up_ticks=*/-1);
  cluster.RunTicks(6);
  for (const std::string& key : acked) {
    if (!client.Get(key).ok()) run.lost_after_failback++;
  }
  return run;
}

uint64_t Mix64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Order-sensitive fingerprint of a metrics history (bit-exact doubles).
uint64_t Fingerprint(const std::vector<sim::TenantTickMetrics>& history) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& m : history) {
    h = Mix64(h, m.issued);
    h = Mix64(h, m.ok);
    h = Mix64(h, m.errors);
    h = Mix64(h, m.throttled);
    h = Mix64(h, m.unavailable);
    h = Mix64(h, m.redirects);
    h = Mix64(h, m.replica_reads);
    h = Mix64(h, m.replica_lag_sum);
    h = Mix64(h, m.proxy_hits);
    h = Mix64(h, m.node_cache_hits);
    h = Mix64(h, m.disk_reads);
    h = Mix64(h, m.reads_completed);
    h = Mix64(h, DoubleBits(m.ru_charged));
    h = Mix64(h, DoubleBits(m.latency_sum));
    h = Mix64(h, static_cast<uint64_t>(m.latency_max));
    h = Mix64(h, m.latency_count);
  }
  return h;
}

FailoverRun RunFailover(int replicas, int workers) {
  sim::SimOptions opt;
  opt.seed = 99;
  opt.data_plane_workers = workers;
  opt.failover_detection_ticks = 1;
  // Timed settle: data-plane responses carry sampled sub-tick service
  // times, so the percentile columns show what the outage does to the
  // tail (queueing on the survivors), not just the error count.
  opt.node.service_time.dist = latency::DistKind::kLognormal;
  opt.node.service_time.mean_micros = 150;
  opt.node.service_time.sigma = 1.2;
  opt.latency.enabled = true;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(8);

  meta::TenantConfig cfg;
  cfg.id = 1;
  cfg.name = "failover-bench";
  cfg.tenant_quota_ru = 100000;
  cfg.num_partitions = 4;
  cfg.num_proxies = 4;
  cfg.num_proxy_groups = 2;
  cfg.replicas = replicas;
  (void)sim.AddTenant(cfg, pool);
  sim.PreloadKeys(1, /*num_keys=*/1000, /*value_bytes=*/256);

  sim::WorkloadProfile profile;
  profile.base_qps = 2000;
  profile.read_ratio = 0.8;
  profile.num_keys = 1000;
  profile.value_bytes = 256;
  sim.SetWorkload(1, profile);

  const NodeId victim = sim.meta().PrimaryFor(1, 0);
  const size_t fail_tick = kWarmupTicks;
  const size_t recover_tick = kWarmupTicks + kFailTicks;
  const size_t total = kWarmupTicks + kFailTicks + kAfterTicks;
  for (size_t tick = 0; tick < total; tick++) {
    if (tick == fail_tick) sim.FailNode(victim);
    if (tick == recover_tick) sim.RecoverNode(victim, kCatchUpTicks);
    sim.Tick();
  }

  FailoverRun run;
  run.replicas = replicas;
  run.workers = workers;
  run.history = sim.History(1);
  size_t last_unavailable = fail_tick;
  for (size_t tick = 0; tick < run.history.size(); tick++) {
    const auto& m = run.history[tick];
    run.error_window_area += m.unavailable;
    run.redirects += m.redirects;
    run.ok_total += m.ok;
    if (m.unavailable > 0 && tick >= fail_tick) last_unavailable = tick;
  }
  run.ticks_to_recover = last_unavailable - fail_tick + 1;
  run.latency = PercentilesOver(run.history, 0, run.history.size());
  return run;
}

}  // namespace
}  // namespace bench
}  // namespace abase

int main() {
  using abase::bench::FailoverRun;
  using abase::bench::Fingerprint;
  using abase::bench::RunFailover;

  abase::bench::PrintHeader(
      "Live failover: error window and recovery time vs replica count");

  std::printf("%9s %9s %17s %14s %10s %10s %8s %8s %8s\n", "replicas",
              "workers", "ticks_to_recover", "error_area", "redirects",
              "ok_total", "p50us", "p95us", "p99us");
  std::vector<FailoverRun> runs;
  for (int replicas : {1, 2, 3}) {
    FailoverRun r = RunFailover(replicas, /*workers=*/1);
    std::printf("%9d %9d %17zu %14llu %10llu %10llu %8.0f %8.0f %8.0f\n",
                r.replicas, r.workers, r.ticks_to_recover,
                static_cast<unsigned long long>(r.error_window_area),
                static_cast<unsigned long long>(r.redirects),
                static_cast<unsigned long long>(r.ok_total), r.latency.p50_us,
                r.latency.p95_us, r.latency.p99_us);
    runs.push_back(std::move(r));
  }

  // Availability gate: running with replicas must shrink the outage.
  const FailoverRun& solo = runs[0];
  bool replicas_help = true;
  for (size_t i = 1; i < runs.size(); i++) {
    replicas_help = replicas_help &&
                    runs[i].error_window_area < solo.error_window_area &&
                    runs[i].ticks_to_recover <= solo.ticks_to_recover;
  }
  std::printf("\nreplicas shrink the error window: %s\n",
              replicas_help ? "yes" : "NO (regression)");

  // Determinism gate: the replicas=3 failover replayed under parallel
  // executors must reproduce the serial history bit-for-bit.
  uint64_t serial_fp = Fingerprint(runs.back().history);
  bool deterministic = true;
  for (int workers : {2, 4}) {
    FailoverRun r = RunFailover(/*replicas=*/3, workers);
    bool same = Fingerprint(r.history) == serial_fp;
    deterministic = deterministic && same;
    std::printf("determinism @%d workers: %s\n", workers,
                same ? "bit-identical" : "MISMATCH");
  }

  // Replication-lag axis: acknowledged writes lost at failover and still
  // lost after failback, per configured lag.
  std::printf("\n%6s %12s %18s %20s\n", "lag", "acked", "lost_at_failover",
              "lost_after_failback");
  std::vector<abase::bench::LagRun> lag_runs;
  for (int lag : {0, 1, 2, 4}) {
    abase::bench::LagRun r = abase::bench::RunLagAxis(lag);
    std::printf("%6d %12zu %18llu %20llu\n", r.lag, r.acked_writes,
                static_cast<unsigned long long>(r.lost_at_failover),
                static_cast<unsigned long long>(r.lost_after_failback));
    lag_runs.push_back(r);
  }

  // Lag gates: lag 0 loses nothing; the window grows monotonically.
  bool lag_zero_lossless = lag_runs[0].lost_at_failover == 0 &&
                           lag_runs[0].lost_after_failback == 0;
  bool lag_monotone = true;
  for (size_t i = 1; i < lag_runs.size(); i++) {
    lag_monotone = lag_monotone &&
                   lag_runs[i].lost_at_failover >=
                       lag_runs[i - 1].lost_at_failover &&
                   lag_runs[i].lost_after_failback >=
                       lag_runs[i - 1].lost_after_failback;
  }
  lag_monotone = lag_monotone && lag_runs.back().lost_at_failover > 0;
  std::printf("lag=0 loses zero acked writes: %s\n",
              lag_zero_lossless ? "yes" : "NO (regression)");
  std::printf("lost-write window grows with lag: %s\n",
              lag_monotone ? "yes" : "NO (regression)");

  FILE* f = std::fopen("BENCH_failover.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\"bench\":\"failover\",\"warmup_ticks\":%zu,"
                 "\"fail_ticks\":%zu,\"after_ticks\":%zu,"
                 "\"catch_up_ticks\":%d,"
                 "\"deterministic_across_workers\":%s,"
                 "\"replicas_shrink_error_window\":%s,"
                 "\"lag_zero_lossless\":%s,"
                 "\"lost_writes_grow_with_lag\":%s,\"results\":[",
                 abase::bench::kWarmupTicks, abase::bench::kFailTicks,
                 abase::bench::kAfterTicks, abase::bench::kCatchUpTicks,
                 deterministic ? "true" : "false",
                 replicas_help ? "true" : "false",
                 lag_zero_lossless ? "true" : "false",
                 lag_monotone ? "true" : "false");
    for (size_t i = 0; i < runs.size(); i++) {
      const FailoverRun& r = runs[i];
      std::fprintf(f,
                   "%s{\"replicas\":%d,\"ticks_to_recover\":%zu,"
                   "\"error_window_area\":%llu,\"redirects\":%llu,"
                   "\"ok_total\":%llu,\"p50_us\":%.1f,\"p95_us\":%.1f,"
                   "\"p99_us\":%.1f}",
                   i == 0 ? "" : ",", r.replicas, r.ticks_to_recover,
                   static_cast<unsigned long long>(r.error_window_area),
                   static_cast<unsigned long long>(r.redirects),
                   static_cast<unsigned long long>(r.ok_total),
                   r.latency.p50_us, r.latency.p95_us, r.latency.p99_us);
    }
    std::fprintf(f, "],\"lag_results\":[");
    for (size_t i = 0; i < lag_runs.size(); i++) {
      const abase::bench::LagRun& r = lag_runs[i];
      std::fprintf(f,
                   "%s{\"replication_lag_ticks\":%d,\"acked_writes\":%zu,"
                   "\"lost_at_failover\":%llu,\"lost_after_failback\":%llu}",
                   i == 0 ? "" : ",", r.lag, r.acked_writes,
                   static_cast<unsigned long long>(r.lost_at_failover),
                   static_cast<unsigned long long>(r.lost_after_failback));
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_failover.json\n");
  }
  return deterministic && replicas_help && lag_zero_lossless && lag_monotone
             ? 0
             : 1;
}
