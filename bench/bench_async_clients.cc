// Async command API: achieved request throughput and latency vs pipeline
// depth × client count.
//
// Closed-loop harness: N client sessions each keep D commands in flight
// against one shared cluster — every resolved future is immediately
// replaced — and the run measures requests completed per simulated tick
// plus the p50/p99 latency-in-ticks. The sync baseline runs the same
// clients through the lock-step Get adapter, which structurally caps the
// whole fleet at ~1 request per tick (each call drains its own future
// before the next is issued). The headline ratio is the payoff of the
// pipeline-shaped API: the 64-client × depth-16 grid point must clear
// >= 10x the sync baseline.
//
// Also cross-checks determinism: the 64x16 point is replayed under 2 and
// 4 data-plane workers and must reproduce the serial completion count
// and latency checksum bit-for-bit.
//
// Writes BENCH_async_clients.json (overwritten per run; CI archives
// BENCH_*.json as artifacts).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/abase.h"

namespace abase {
namespace bench {
namespace {

constexpr uint64_t kKeySpace = 2048;
constexpr uint64_t kValueBytes = 256;

meta::TenantConfig AsyncTenant() {
  meta::TenantConfig c;
  c.id = 1;
  c.name = "async-bench";
  c.tenant_quota_ru = 2000000;  // Ample: measure the API, not admission.
  c.num_partitions = 16;
  c.num_proxies = 8;
  c.num_proxy_groups = 2;
  return c;
}

Cluster MakeCluster(int workers) {
  ClusterOptions copts;
  copts.sim.seed = 7;
  copts.sim.data_plane_workers = workers;
  copts.sim.node.wfq.cpu_budget_ru = 100000;
  copts.sim.node.ru_capacity = 100000;
  // Timed settle: data-plane responses carry sampled sub-tick service
  // times so the grid reports real p50/p95/p99 micros next to the
  // tick-granular latency (proxy cache hits settle outside the data
  // plane and don't contribute samples).
  copts.sim.node.service_time.dist = latency::DistKind::kLognormal;
  copts.sim.node.service_time.mean_micros = 150;
  copts.sim.node.service_time.sigma = 1.2;
  copts.sim.latency.enabled = true;
  return Cluster(copts);
}

std::string KeyFor(int client, int seq) {
  return "t1:k" + std::to_string(
                      (static_cast<uint64_t>(client) * 131 + seq * 7) %
                      kKeySpace);
}

struct AsyncRun {
  size_t clients = 0;
  size_t depth = 0;
  int workers = 1;
  uint64_t completed = 0;
  uint64_t errors = 0;
  size_t ticks = 0;
  double reqs_per_tick = 0;
  double p50_latency_ticks = 0;
  double p99_latency_ticks = 0;
  WindowPercentiles micros;  ///< Sub-tick data-plane percentiles.
  uint64_t latency_checksum = 0;  ///< Order-independent determinism probe.
};

AsyncRun RunAsync(size_t num_clients, size_t depth, int workers,
                  size_t ticks) {
  Cluster cluster = MakeCluster(workers);
  PoolId pool = cluster.CreatePool(8);
  (void)cluster.CreateTenant(AsyncTenant(), pool);
  cluster.sim().PreloadKeys(1, kKeySpace, kValueBytes);

  std::vector<Client> clients;
  clients.reserve(num_clients);
  for (size_t c = 0; c < num_clients; c++) {
    clients.push_back(cluster.OpenClient(1));
  }

  std::vector<std::vector<Future<Reply>>> outstanding(num_clients);
  std::vector<int> next_seq(num_clients, 0);
  auto submit_one = [&](size_t c) {
    int seq = next_seq[c]++;
    outstanding[c].push_back(clients[c].Submit(
        Command::Get(KeyFor(static_cast<int>(c), seq))));
  };
  for (size_t c = 0; c < num_clients; c++) {
    for (size_t d = 0; d < depth; d++) submit_one(c);
  }

  AsyncRun run;
  run.clients = num_clients;
  run.depth = depth;
  run.workers = workers;
  run.ticks = ticks;
  std::vector<uint64_t> latencies;
  for (size_t tick = 0; tick < ticks; tick++) {
    cluster.Step();
    for (size_t c = 0; c < num_clients; c++) {
      auto& fs = outstanding[c];
      for (size_t i = 0; i < fs.size();) {
        if (fs[i].ready()) {
          const Reply& r = fs[i].value();
          if (r.ok() || r.status.IsNotFound()) {
            run.completed++;
          } else {
            run.errors++;
          }
          uint64_t lat = r.LatencyTicks();
          latencies.push_back(lat);
          run.latency_checksum += lat * lat;
          fs.erase(fs.begin() + static_cast<long>(i));
          submit_one(c);  // Closed loop: keep `depth` in flight.
        } else {
          i++;
        }
      }
    }
  }
  run.reqs_per_tick =
      ticks == 0 ? 0 : static_cast<double>(run.completed + run.errors) /
                           static_cast<double>(ticks);
  const auto& history = cluster.sim().History(1);
  run.micros = PercentilesOver(history, 0, history.size());
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    run.p50_latency_ticks =
        static_cast<double>(latencies[latencies.size() / 2]);
    run.p99_latency_ticks = static_cast<double>(
        latencies[std::min(latencies.size() - 1,
                           latencies.size() * 99 / 100)]);
  }
  return run;
}

/// The lock-step baseline: the same fleet issues synchronous Gets
/// round-robin; each call drains before the next submit, so the shared
/// simulation serves at most one client request per tick.
double RunSyncBaseline(size_t num_clients, size_t total_requests) {
  Cluster cluster = MakeCluster(/*workers=*/1);
  PoolId pool = cluster.CreatePool(8);
  (void)cluster.CreateTenant(AsyncTenant(), pool);
  cluster.sim().PreloadKeys(1, kKeySpace, kValueBytes);

  std::vector<Client> clients;
  clients.reserve(num_clients);
  for (size_t c = 0; c < num_clients; c++) {
    clients.push_back(cluster.OpenClient(1));
  }
  std::vector<int> next_seq(num_clients, 0);

  const Micros tick_len = cluster.sim().options().tick;
  Micros start = cluster.sim().clock().NowMicros();
  for (size_t i = 0; i < total_requests; i++) {
    size_t c = i % num_clients;
    (void)clients[c].Get(KeyFor(static_cast<int>(c), next_seq[c]++));
  }
  Micros elapsed = cluster.sim().clock().NowMicros() - start;
  double ticks = static_cast<double>(elapsed) / static_cast<double>(tick_len);
  return ticks <= 0 ? 0 : static_cast<double>(total_requests) / ticks;
}

}  // namespace
}  // namespace bench
}  // namespace abase

int main() {
  using abase::bench::AsyncRun;
  using abase::bench::RunAsync;
  using abase::bench::RunSyncBaseline;

  abase::bench::PrintHeader(
      "Async command API: closed-loop throughput vs pipeline depth x "
      "client count");

  constexpr size_t kTicks = 50;
  const std::vector<size_t> client_counts = {1, 8, 64};
  const std::vector<size_t> depths = {1, 4, 16};

  std::printf("%8s %7s %9s %12s %10s %8s %8s %8s %8s %8s\n", "clients",
              "depth", "workers", "reqs/tick", "errors", "p50", "p99",
              "p50us", "p95us", "p99us");
  std::vector<AsyncRun> runs;
  for (size_t clients : client_counts) {
    for (size_t depth : depths) {
      AsyncRun r = RunAsync(clients, depth, /*workers=*/1, kTicks);
      std::printf("%8zu %7zu %9d %12.1f %10llu %8.1f %8.1f %8.0f %8.0f "
                  "%8.0f\n",
                  r.clients, r.depth, r.workers, r.reqs_per_tick,
                  static_cast<unsigned long long>(r.errors),
                  r.p50_latency_ticks, r.p99_latency_ticks, r.micros.p50_us,
                  r.micros.p95_us, r.micros.p99_us);
      runs.push_back(r);
    }
  }

  // Lock-step baseline at the largest fleet size.
  const size_t kBaselineClients = 64;
  double sync_rpt = RunSyncBaseline(kBaselineClients, /*total_requests=*/400);
  const AsyncRun& headline = runs.back();  // 64 clients x depth 16.
  double speedup = sync_rpt > 0 ? headline.reqs_per_tick / sync_rpt : 0;
  std::printf(
      "\nsync lock-step baseline (%zu clients): %.2f reqs/tick\n"
      "async %zux%zu: %.1f reqs/tick -> %.1fx the lock-step loop "
      "(acceptance: >= 10x)\n",
      kBaselineClients, sync_rpt, headline.clients, headline.depth,
      headline.reqs_per_tick, speedup);

  // Determinism probe: the headline point replayed under parallel
  // executors must reproduce completions and latency checksum exactly.
  bool deterministic = true;
  for (int workers : {2, 4}) {
    AsyncRun r = RunAsync(64, 16, workers, kTicks);
    bool same = r.completed == headline.completed &&
                r.errors == headline.errors &&
                r.latency_checksum == headline.latency_checksum;
    deterministic = deterministic && same;
    std::printf("determinism @%d workers: %s\n", workers,
                same ? "bit-identical" : "MISMATCH");
  }

  FILE* f = std::fopen("BENCH_async_clients.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\"bench\":\"async_clients\",\"ticks\":%zu,"
                 "\"sync_baseline_clients\":%zu,"
                 "\"sync_reqs_per_tick\":%.3f,\"speedup_vs_sync\":%.2f,"
                 "\"deterministic_across_workers\":%s,\"results\":[",
                 kTicks, kBaselineClients, sync_rpt, speedup,
                 deterministic ? "true" : "false");
    for (size_t i = 0; i < runs.size(); i++) {
      const AsyncRun& r = runs[i];
      std::fprintf(f,
                   "%s{\"clients\":%zu,\"depth\":%zu,\"reqs_per_tick\":%.2f,"
                   "\"completed\":%llu,\"errors\":%llu,"
                   "\"p50_latency_ticks\":%.1f,\"p99_latency_ticks\":%.1f,"
                   "\"p50_us\":%.1f,\"p95_us\":%.1f,\"p99_us\":%.1f}",
                   i == 0 ? "" : ",", r.clients, r.depth, r.reqs_per_tick,
                   static_cast<unsigned long long>(r.completed),
                   static_cast<unsigned long long>(r.errors),
                   r.p50_latency_ticks, r.p99_latency_ticks, r.micros.p50_us,
                   r.micros.p95_us, r.micros.p99_us);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_async_clients.json\n");
  }
  return speedup >= 10.0 && deterministic ? 0 : 1;
}
