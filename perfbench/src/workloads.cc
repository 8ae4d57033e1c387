// The benchmark workloads and the cluster set-up they share.
//
// Every workload enables the latency subsystem with lognormal service
// times, so client latencies are sub-tick virtual times. The seed drives
// the request streams, the service-time draws and the node RNGs; tenant
// shapes are fixed, so two seeds differ in traffic, not in deployment.
#include <algorithm>
#include <cmath>

#include "bench.h"

namespace perfbench {
namespace {

using abase::ClusterOptions;
using abase::meta::TenantConfig;
using abase::sim::KeyDist;
using abase::sim::WorkloadProfile;

ClusterOptions BaseOptions(uint64_t seed) {
  ClusterOptions o;
  o.sim.seed = seed;
  o.sim.node.seed = seed;
  o.sim.node.service_time.enabled = true;
  o.sim.node.service_time.dist = abase::latency::DistKind::kLognormal;
  o.sim.node.service_time.mean_micros = 150;
  o.sim.node.service_time.sigma = 1.0;
  o.sim.node.service_time.seed = seed;
  o.sim.latency.enabled = true;
  return o;
}

TenantConfig Tenant(abase::TenantId id, double quota_ru,
                    uint32_t partitions) {
  TenantConfig c;
  c.id = id;
  c.name = "t" + std::to_string(id);
  c.tenant_quota_ru = quota_ru;
  c.num_partitions = partitions;
  c.num_proxies = 4;
  c.num_proxy_groups = 2;
  c.replicas = 3;
  return c;
}

// 64 tenants of diverse shape on one pool; every eighth tenant is a
// noisy neighbour offering 2.5x its proxy ceiling (quota x the proxies'
// 2x headroom). The isolation case: proxy quota, partition quota and
// WFQ across many tenants on nodes with a tight CPU budget, with hedged
// eventual reads on some. Rates span 15-200 req/s per tenant, so a tick
// stays near 33 ms and a run holds over a thousand ticks.
WorkloadSpec TenantMix(uint64_t seed) {
  WorkloadSpec s;
  s.name = "tenant_mix";
  s.options = BaseOptions(seed);
  s.setup_reps = 15;
  s.ticks_per_second = 30;
  s.options.sim.data_plane_workers = 2;
  s.options.sim.node.wfq.cpu_budget_ru = 2000;
  // Small memtables, so that flushes and compactions run all through the
  // window (about 6 flushes and 1 compaction per tick) and the storage
  // write path is timed.
  s.options.sim.node.lsm.memtable_flush_bytes = 64ull << 10;
  s.options.sim.latency.hedge.enabled = true;
  s.options.sim.latency.hedge.min_observations = 32;
  s.options.sim.latency.hedge.min_threshold_micros = 100;
  // Fixed shapes: the seed changes the traffic, not the tenants.
  abase::Rng shape(20250622);
  for (abase::TenantId t = 1; t <= 64; t++) {
    TenantSpec ts;
    WorkloadProfile& p = ts.profile;
    p.base_qps = 15.0 * std::pow(200.0 / 15.0, shape.NextDouble());
    p.read_ratio = 0.5 + 0.45 * shape.NextDouble();
    p.value_bytes =
        static_cast<uint64_t>(128 * std::pow(8.0, shape.NextDouble()));
    p.num_keys = 1000 + shape.NextUint64(3000);
    if (t % 2 == 0) {
      p.key_dist = KeyDist::kZipfian;
      p.zipf_theta = 0.8 + 0.19 * shape.NextDouble();
    } else {
      p.key_dist = KeyDist::kHotSpot;
      p.hot_fraction = 0.01;
      p.hot_share = 0.8;
    }
    if (t % 4 == 1) p.eventual_read_fraction = 0.5;
    ts.within_quota = t % 8 != 0;
    if (!ts.within_quota) p.base_qps = 300;
    // RU demand: reads ~1 RU, writes pay every replica.
    const double ru_per_s =
        p.base_qps * (p.read_ratio + (1 - p.read_ratio) * 3.0) *
        std::max(1.0, static_cast<double>(p.value_bytes) / 2048.0);
    const double quota =
        ts.within_quota ? 4 * ru_per_s + 200 : ru_per_s / (2.5 * 2);
    ts.config = Tenant(t, quota, 8);
    ts.preload_keys = p.num_keys;
    ts.preload_value_bytes = p.value_bytes;
    s.tenants.push_back(ts);
  }
  return s;
}

// Closed-loop Client sessions: Get / Set / ScanPrefix on keys each
// session owns, so every reply can be checked against the session's own
// history (read-your-writes) and every scan against its prefix.
WorkloadSpec ClientScan(uint64_t seed) {
  WorkloadSpec s;
  s.name = "client_scan";
  s.options = BaseOptions(seed);
  s.setup_reps = 25;
  s.ticks_per_second = 38;
  s.client_scan = true;
  s.sessions_per_tenant = 16;
  s.session_depth = 16;
  s.keys_per_session = 128;
  for (abase::TenantId t = 1; t <= 4; t++) {
    TenantSpec ts;
    ts.config = Tenant(t, 1e6, 16);
    // The profile is not attached; the core replay and the standalone
    // layer replays draw their streams from it.
    ts.profile.read_ratio = 0.7;
    ts.profile.num_keys = 20000;
    ts.profile.value_bytes = 256;
    ts.profile.base_qps = 1000;
    ts.preload_keys = 20000;
    ts.preload_value_bytes = 256;
    s.tenants.push_back(ts);
  }
  return s;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tenant_mix",
                                                 "client_scan"};
  return names;
}

WorkloadSpec MakeWorkload(const std::string& name, uint64_t seed,
                          double seconds) {
  WorkloadSpec s;
  if (name == "tenant_mix") s = TenantMix(seed);
  if (name == "client_scan") s = ClientScan(seed);
  constexpr size_t kMinWindowTicks = 200;
  s.window_ticks = std::max(
      kMinWindowTicks,
      static_cast<size_t>(std::llround(seconds * s.ticks_per_second)));
  return s;
}

std::unique_ptr<abase::Cluster> BuildCluster(const WorkloadSpec& spec,
                                             SetupTiming* timing) {
  auto cluster = std::make_unique<abase::Cluster>(spec.options);
  abase::PoolId pool = cluster->CreatePool(spec.nodes);
  for (const TenantSpec& ts : spec.tenants) {
    auto t0 = WallClock::now();
    abase::Status st = cluster->CreateTenant(ts.config, pool);
    timing->add_tenant_s += SecondsSince(t0);
    timing->tenants++;
    if (!st.ok()) return nullptr;
    t0 = WallClock::now();
    cluster->sim().PreloadKeys(ts.config.id, ts.preload_keys,
                               ts.preload_value_bytes);
    timing->preload_s += SecondsSince(t0);
    timing->preload_keys += ts.preload_keys;
    if (!spec.client_scan) cluster->AttachWorkload(ts.config.id, ts.profile);
  }
  return cluster;
}

}  // namespace perfbench
