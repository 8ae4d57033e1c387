// Per-layer measurement: public counters read between ticks, and the
// standalone replays behind the timed *_ns metrics.
#include <algorithm>
#include <cmath>
#include <map>

#include "bench.h"
#include "cache/prefix_tree_store.h"
#include "cache/sa_lru.h"
#include "common/hash.h"
#include "common/key_ref.h"
#include "common/keyspace.h"
#include "sched/wfq_queue.h"
#include "storage/lsm_engine.h"

namespace perfbench {

using abase::sim::ClusterSim;

namespace {

/// Tenants whose streams the standalone replays use.
constexpr size_t kReplayTenants = 4;
/// The replay stream: generated ticks until this many requests.
constexpr size_t kReplayRequests = 40000;
constexpr size_t kReplayMaxTicks = 64;
/// Timed passes repeat until at least this many operations.
constexpr uint64_t kMinTimedOps = 200000;
constexpr size_t kMultiFindBatch = 16;
constexpr size_t kScanLimit = 20;
/// Cluster::Step calls of the standalone core replay.
constexpr size_t kCoreTicks = 20;
constexpr size_t kCoreClients = 16;

/// One tick of one tenant's generated requests.
struct StreamTick {
  abase::TenantId tenant = 0;
  std::vector<abase::ClientRequest> requests;
};

std::vector<StreamTick> MakeStream(const WorkloadSpec& spec) {
  const size_t tenants = std::min(kReplayTenants, spec.tenants.size());
  std::vector<abase::sim::WorkloadGenerator> gens;
  for (size_t i = 0; i < tenants; i++) {
    const TenantSpec& ts = spec.tenants[i];
    gens.emplace_back(ts.config.id, ts.profile,
                      spec.options.sim.seed ^ (0x51ed27ull * (i + 1)));
  }
  std::vector<StreamTick> stream;
  size_t total = 0;
  for (size_t tick = 0; tick < kReplayMaxTicks && total < kReplayRequests;
       tick++) {
    for (size_t i = 0; i < tenants; i++) {
      StreamTick st;
      st.tenant = spec.tenants[i].config.id;
      st.requests = gens[i].Tick(static_cast<abase::Micros>(tick) *
                                     abase::kMicrosPerSecond,
                                 abase::kMicrosPerSecond);
      total += st.requests.size();
      stream.push_back(std::move(st));
    }
  }
  return stream;
}

const TenantSpec* FindTenant(const WorkloadSpec& spec, abase::TenantId id) {
  for (const TenantSpec& ts : spec.tenants) {
    if (ts.config.id == id) return &ts;
  }
  return nullptr;
}

/// Runs `pass` until it has done kMinTimedOps operations; returns
/// nanoseconds per operation. `pass` returns the operations it did.
template <typename Pass>
double TimePerOp(Pass pass) {
  uint64_t ops = 0;
  auto t0 = WallClock::now();
  while (ops < kMinTimedOps) {
    const uint64_t n = pass();
    if (n == 0) break;
    ops += n;
  }
  return ops == 0 ? 0 : SecondsSince(t0) * 1e9 / static_cast<double>(ops);
}

std::string NodeCacheKey(const abase::ClientRequest& req) {
  return std::to_string(req.tenant) + "|0|" + req.key;
}

}  // namespace

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

LayerCounters ReadCounters(ClusterSim& sim, const WorkloadSpec& spec) {
  LayerCounters c;
  for (const TenantSpec& ts : spec.tenants) {
    const auto* rt = sim.Tenant(ts.config.id);
    if (rt == nullptr) continue;
    for (const auto& proxy : rt->proxies) {
      const auto& s = proxy->stats();
      c.proxy_requests += s.requests;
      c.proxy_hits += s.cache_hits;
      c.proxy_throttled += s.throttled;
      c.proxy_forwarded += s.forwarded;
      c.proxy_refresh += s.refresh_fetches;
      c.proxy_admitted_ru += s.admitted_ru;
      c.proxy_charged_ru += s.charged_ru;
      c.pcache_evictions += proxy->cache().stats().evictions;
      const auto& tree = proxy->cache().tree_stats();
      c.pcache_scan_hits += tree.scan_hits;
      c.pcache_scan_misses += tree.scan_misses;
      c.pcache_scans_dropped += tree.scans_dropped_by_write;
    }
  }
  for (const auto& node : sim.nodes()) {
    const auto& cs = node->data_cache().stats();
    c.ncache_hits += cs.hits;
    c.ncache_misses += cs.misses;
    c.ncache_evictions += cs.evictions;
    for (const auto* rep : node->Replicas()) {
      const auto& s = rep->engine->stats();
      c.lsm_gets += s.gets;
      c.lsm_memtable_hits += s.memtable_hits;
      c.lsm_bloom_filtered += s.bloom_filtered;
      c.lsm_block_reads += s.block_reads;
      c.lsm_flushes += s.flush_count;
      c.lsm_flushed_bytes += s.flushed_bytes;
      c.lsm_compactions += s.compaction_count;
      c.lsm_compaction_write_bytes += s.compaction_write_bytes;
      c.lsm_repl_applied += s.repl_applied;
      if (rep->is_primary) c.lsm_primary_puts += s.puts;
    }
  }
  return c;
}

void NodeTotals::Take(ClusterSim& sim, bool count) {
  for (const auto& node : sim.nodes()) {
    const abase::node::NodeTickStats s = node->TakeTickStats();
    if (!count) continue;
    submitted += s.submitted;
    rejected_quota += s.rejected_quota;
    completed += s.completed;
    disk_served += s.disk_served;
    rule3_deferrals += s.wfq.rule3_deferrals;
    io_scheduled += s.wfq.io_scheduled;
  }
  if (count) ticks++;
}

void AddWindowMetrics(const TracedWindow& w, ClusterSim& sim,
                      const WorkloadSpec& spec, Metrics* out) {
  Metrics& m = *out;
  // sim: wall nanoseconds per settled request, per stage.
  for (const auto& [name, nanos] : w.stage_nanos) {
    m.emplace_back("stage." + name + ".ns_per_req",
                   Ratio(nanos, w.settled_traced), "ns");
  }
  const LayerCounters& b = w.begin;
  const LayerCounters& e = w.end;
  const uint64_t requests = e.proxy_requests - b.proxy_requests;
  auto per_kreq = [requests](uint64_t n) {
    return Ratio(static_cast<double>(n) * 1000, static_cast<double>(requests));
  };
  // proxy
  m.emplace_back("proxy.hit_share",
                 Ratio(e.proxy_hits - b.proxy_hits, requests), "ratio");
  m.emplace_back("proxy.forward_share",
                 Ratio(e.proxy_forwarded - b.proxy_forwarded, requests),
                 "ratio");
  m.emplace_back("proxy.throttle_share",
                 Ratio(e.proxy_throttled - b.proxy_throttled, requests),
                 "ratio");
  m.emplace_back("proxy.refresh_per_kreq",
                 per_kreq(e.proxy_refresh - b.proxy_refresh), "count");
  const double admitted = e.proxy_admitted_ru - b.proxy_admitted_ru;
  const double charged = e.proxy_charged_ru - b.proxy_charged_ru;
  m.emplace_back("proxy.ru_estimate_error",
                 Ratio(std::fabs(admitted - charged), charged), "ratio");
  // cache
  m.emplace_back("cache.proxy.evictions_per_kreq",
                 per_kreq(e.pcache_evictions - b.pcache_evictions), "count");
  const uint64_t scan_hits = e.pcache_scan_hits - b.pcache_scan_hits;
  m.emplace_back("cache.proxy.scan_hit_ratio",
                 Ratio(scan_hits,
                       scan_hits + e.pcache_scan_misses - b.pcache_scan_misses),
                 "ratio");
  m.emplace_back("cache.proxy.scans_dropped_per_kreq",
                 per_kreq(e.pcache_scans_dropped - b.pcache_scans_dropped),
                 "count");
  const uint64_t nhits = e.ncache_hits - b.ncache_hits;
  m.emplace_back("cache.node.hit_ratio",
                 Ratio(nhits, nhits + e.ncache_misses - b.ncache_misses),
                 "ratio");
  m.emplace_back("cache.node.evictions_per_kreq",
                 per_kreq(e.ncache_evictions - b.ncache_evictions), "count");
  // sched + node
  m.emplace_back("node.rejected_quota_share",
                 Ratio(w.nodes.rejected_quota, w.nodes.submitted), "ratio");
  m.emplace_back("node.disk_served_share",
                 Ratio(w.nodes.disk_served, w.nodes.completed), "ratio");
  // storage
  const uint64_t gets = e.lsm_gets - b.lsm_gets;
  m.emplace_back("lsm.memtable_hit_ratio",
                 Ratio(e.lsm_memtable_hits - b.lsm_memtable_hits, gets),
                 "ratio");
  m.emplace_back("lsm.bloom_filtered_per_get",
                 Ratio(e.lsm_bloom_filtered - b.lsm_bloom_filtered, gets),
                 "count");
  m.emplace_back("lsm.block_reads_per_get",
                 Ratio(e.lsm_block_reads - b.lsm_block_reads, gets), "count");
  m.emplace_back("lsm.flushes",
                 static_cast<double>(e.lsm_flushes - b.lsm_flushes), "count");
  m.emplace_back("lsm.compactions",
                 static_cast<double>(e.lsm_compactions - b.lsm_compactions),
                 "count");
  m.emplace_back("lsm.repl_applied_per_write",
                 Ratio(e.lsm_repl_applied - b.lsm_repl_applied,
                       e.lsm_primary_puts - b.lsm_primary_puts),
                 "ratio");
  const uint64_t flushed = e.lsm_flushed_bytes - b.lsm_flushed_bytes;
  m.emplace_back("lsm.write_amp",
                 Ratio(flushed + e.lsm_compaction_write_bytes -
                           b.lsm_compaction_write_bytes,
                       flushed),
                 "ratio");
  // Space amplification: stored bytes over live bytes times replicas.
  // Live bytes come from a full scan of every primary engine.
  uint64_t stored = 0, live = 0;
  abase::storage::ScanBuffer buf;
  for (const auto& node : sim.nodes()) {
    stored += node->StoredBytes();
    for (const auto* rep : node->Replicas()) {
      if (!rep->is_primary) continue;
      auto* engine = node->EngineFor(rep->tenant, rep->partition);
      std::string start;
      for (;;) {
        buf.Clear();
        auto res = engine->ScanRange(start, "", 4096, buf);
        live += res.bytes;
        if (res.done || res.next_key.empty()) break;
        start = res.next_key;
      }
    }
  }
  const int replicas = spec.tenants.front().config.replicas;
  m.emplace_back("lsm.space_amp",
                 Ratio(static_cast<double>(stored),
                       static_cast<double>(live) * replicas),
                 "ratio");
  // latency
  m.emplace_back("latency.hedge_share", Ratio(w.hedged, w.reads), "ratio");
  m.emplace_back("latency.hedge_win_ratio", Ratio(w.hedge_wins, w.hedged),
                 "ratio");
}

// ---------------------------------------------------------------------------
// core
// ---------------------------------------------------------------------------

CoreTiming ReplayCore(const WorkloadSpec& spec) {
  CoreTiming c;
  abase::ClusterOptions options = spec.options;
  options.sim.data_plane_workers = 1;
  abase::Cluster cluster(options);
  abase::PoolId pool = cluster.CreatePool(spec.nodes);
  const TenantSpec& ts = spec.tenants.front();
  abase::meta::TenantConfig config = ts.config;
  config.tenant_quota_ru = 1e9;  // Measure the API, not admission.
  if (!cluster.CreateTenant(config, pool).ok()) return c;
  cluster.sim().PreloadKeys(config.id, ts.preload_keys,
                            ts.preload_value_bytes);
  std::vector<abase::Client> clients;
  for (size_t i = 0; i < kCoreClients; i++) {
    clients.push_back(cluster.OpenClient(config.id));
  }
  abase::sim::WorkloadGenerator gen(config.id, ts.profile,
                                    spec.options.sim.seed);
  std::vector<abase::Future<abase::Reply>> pending;
  auto collect = [&] {
    for (size_t i = 0; i < pending.size();) {
      if (!pending[i].ready()) {
        i++;
        continue;
      }
      c.resolve_ticks_sum += pending[i].value().LatencyTicks();
      c.resolved++;
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
  };
  for (size_t tick = 0; tick < kCoreTicks; tick++) {
    auto reqs = gen.Tick(static_cast<abase::Micros>(tick) *
                             abase::kMicrosPerSecond,
                         abase::kMicrosPerSecond);
    std::vector<abase::Command> cmds;
    for (auto& req : reqs) {
      if (req.op == abase::OpType::kSet) {
        cmds.push_back(abase::Command::Set(std::move(req.key),
                                           std::move(req.value)));
      } else if (req.op == abase::OpType::kScan) {
        cmds.push_back(abase::Command::Scan(std::move(req.key),
                                            std::move(req.field),
                                            req.scan_limit));
      } else {
        abase::Command cmd = abase::Command::Get(std::move(req.key));
        cmd.consistency = req.consistency;
        cmds.push_back(std::move(cmd));
      }
    }
    auto t0 = WallClock::now();
    for (size_t i = 0; i < cmds.size(); i++) {
      pending.push_back(clients[i % kCoreClients].Submit(std::move(cmds[i])));
    }
    c.submit_s += SecondsSince(t0);
    c.submits += cmds.size();
    t0 = WallClock::now();
    cluster.Step();
    c.step_s += SecondsSince(t0);
    collect();
  }
  // The last tick's commands resolve in further Steps; time them too.
  auto t0 = WallClock::now();
  cluster.Drain();
  c.step_s += SecondsSince(t0);
  collect();
  return c;
}

void AddSchedMetrics(const NodeTotals& sched, Metrics* out) {
  out->emplace_back("sched.rule3_deferrals_per_tick",
                    Ratio(sched.rule3_deferrals, sched.ticks), "count");
  out->emplace_back("sched.io_scheduled_per_tick",
                    Ratio(sched.io_scheduled, sched.ticks), "count");
}

void AddCoreMetrics(const CoreTiming& c, Metrics* out) {
  out->emplace_back("core.submit_ns",
                    Ratio(c.submit_s * 1e9, static_cast<double>(c.submits)),
                    "ns");
  out->emplace_back("core.step_ns_per_cmd",
                    Ratio(c.step_s * 1e9, static_cast<double>(c.resolved)),
                    "ns");
  out->emplace_back("core.resolve_ticks_mean",
                    Ratio(c.resolve_ticks_sum, c.resolved), "ticks");
}

void AddSetupMetrics(const SetupTiming& t, Metrics* out) {
  out->emplace_back("setup.add_tenant_us",
                    Ratio(t.add_tenant_s * 1e6, static_cast<double>(t.tenants)),
                    "us");
  out->emplace_back("setup.preload_ns_per_key",
                    Ratio(t.preload_s * 1e9,
                          static_cast<double>(t.preload_keys)),
                    "ns");
}

// ---------------------------------------------------------------------------
// Standalone replays
// ---------------------------------------------------------------------------

void AddReplayMetrics(const WorkloadSpec& spec, Metrics* out,
                      RunResult* result) {
  const std::vector<StreamTick> stream = MakeStream(spec);
  std::vector<const abase::ClientRequest*> reads, writes;
  for (const StreamTick& st : stream) {
    for (const auto& req : st.requests) {
      (req.op == abase::OpType::kSet ? writes : reads).push_back(&req);
    }
  }
  uint64_t sink = 0;  // Keeps every timed result observable.
  abase::SimClock clock;

  // cache: one proxy content store per tenant, filled by a first pass
  // (miss -> fill, write -> invalidate), then timed lookups.
  {
    std::map<abase::TenantId, std::unique_ptr<abase::cache::PrefixTreeStore>>
        stores;
    for (const StreamTick& st : stream) {
      auto& store = stores[st.tenant];
      if (!store) {
        store = std::make_unique<abase::cache::PrefixTreeStore>(
            spec.options.sim.proxy.cache, &clock);
      }
      const uint64_t vbytes = FindTenant(spec, st.tenant)->profile.value_bytes;
      for (const auto& req : st.requests) {
        if (req.op == abase::OpType::kSet) {
          store->EraseHashed(req.key_hash, req.key);
        } else if (!store->GetHashed(req.key_hash, req.key).hit) {
          store->PutHashed(req.key_hash, req.key, std::string(vbytes, 'v'),
                           vbytes + 32);
        }
      }
    }
    out->emplace_back("cache.proxy.lookup_ns", TimePerOp([&] {
               for (const auto* req : reads) {
                 sink += stores[req->tenant]
                             ->GetHashed(req->key_hash, req->key)
                             .hit;
               }
               return reads.size();
             }),
             "ns");
  }

  // cache: one node SA-LRU sized as the workload's node cache.
  {
    abase::cache::SaLruCache lru(spec.options.sim.node.cache, &clock);
    std::vector<std::pair<uint64_t, std::string>> keys;
    for (const StreamTick& st : stream) {
      const uint64_t vbytes = FindTenant(spec, st.tenant)->profile.value_bytes;
      for (const auto& req : st.requests) {
        std::string key = NodeCacheKey(req);
        const uint64_t h = abase::Fnv1a64(key);
        abase::Micros expire = 0;
        if (req.op == abase::OpType::kSet) {
          lru.EraseHashed(h, key);
          continue;
        }
        if (lru.GetRefHashed(h, key, &expire) == nullptr) {
          lru.PutHashed(h, key, std::string(vbytes, 'v'), vbytes + 32);
        }
        keys.emplace_back(h, std::move(key));
      }
    }
    out->emplace_back("cache.node.lookup_ns", TimePerOp([&] {
               abase::Micros expire = 0;
               for (const auto& [h, key] : keys) {
                 sink += lru.GetRefHashed(h, key, &expire) != nullptr;
               }
               return keys.size();
             }),
             "ns");
  }

  // storage: one engine per tenant, preloaded like the cluster.
  {
    abase::storage::LsmOptions lsm = spec.options.sim.node.lsm;
    lsm.enable_repl_log = true;  // As every DataNode engine runs.
    std::map<abase::TenantId, std::unique_ptr<abase::storage::LsmEngine>>
        engines;
    for (const StreamTick& st : stream) {
      auto& engine = engines[st.tenant];
      if (engine) continue;
      engine = std::make_unique<abase::storage::LsmEngine>(lsm, &clock);
      const TenantSpec* ts = FindTenant(spec, st.tenant);
      for (uint64_t i = 0; i < ts->preload_keys; i++) {
        (void)engine->Put("t" + std::to_string(st.tenant) + ":k" +
                              std::to_string(i),
                          std::string(ts->preload_value_bytes, 'v'));
      }
    }
    // Puts: every write of the stream once (flushes and compactions
    // land where the stream puts them).
    auto t0 = WallClock::now();
    for (const auto* req : writes) {
      sink += engines[req->tenant]->Put(req->key, req->value).ok();
    }
    out->emplace_back("lsm.put_ns",
                      writes.empty() ? 0
                                     : SecondsSince(t0) * 1e9 /
                                           static_cast<double>(writes.size()),
                      "ns");
    out->emplace_back("lsm.get_ns", TimePerOp([&] {
               for (const auto* req : reads) {
                 sink += engines[req->tenant]->Get(req->key).ok();
               }
               return reads.size();
             }),
             "ns");
    std::vector<std::string_view> batch;
    std::vector<const abase::storage::ValueEntry*> found(kMultiFindBatch);
    std::vector<abase::storage::ReadIo> ios(kMultiFindBatch);
    out->emplace_back("lsm.multifind_ns_per_key", TimePerOp([&] {
               for (size_t i = 0; i < reads.size(); i += kMultiFindBatch) {
                 batch.clear();
                 const abase::TenantId tenant = reads[i]->tenant;
                 for (size_t j = i;
                      j < std::min(reads.size(), i + kMultiFindBatch) &&
                      reads[j]->tenant == tenant;
                      j++) {
                   batch.push_back(reads[j]->key);
                 }
                 engines[tenant]->MultiFind(batch.data(), batch.size(),
                                            found.data(), ios.data());
                 for (size_t j = 0; j < batch.size(); j++) {
                   sink += found[j] != nullptr;
                 }
               }
               return reads.size();
             }),
             "ns");
    // Scans: a 20-entry range scan from each read key to the end of the
    // tenant's key space.
    abase::storage::ScanBuffer buf;
    out->emplace_back("lsm.scan_ns_per_entry", TimePerOp([&] {
               uint64_t entries = 0;
               for (const auto* req : reads) {
                 buf.Clear();
                 const std::string end = abase::PrefixUpperBound(
                     "t" + std::to_string(req->tenant) + ":");
                 entries += engines[req->tenant]
                                ->ScanRange(req->key, end, kScanLimit, buf)
                                .entries;
               }
               sink += entries;
               return entries;
             }),
             "ns");
  }

  // sched: each tick's requests pushed into one WFQ, then popped.
  {
    abase::sched::WfqQueue wfq;
    const double share =
        1.0 / static_cast<double>(std::max<size_t>(1, spec.tenants.size()));
    std::vector<abase::sched::SchedRequest> sreqs;
    sreqs.reserve(stream.size() ? stream.front().requests.size() : 0);
    uint64_t total = 0;
    for (const StreamTick& st : stream) total += st.requests.size();
    out->emplace_back("sched.wfq_push_pop_ns", TimePerOp([&] {
               for (const StreamTick& st : stream) {
                 for (const auto& req : st.requests) {
                   abase::sched::SchedRequest s;
                   s.req_id = req.req_id;
                   s.tenant = req.tenant;
                   s.is_read = req.op != abase::OpType::kSet;
                   s.cls = abase::ClassifyRequest(s.is_read, req.value.size());
                   s.cpu_cost_ru = s.is_read ? 1.0 : 3.0;
                   s.quota_share = share;
                   wfq.Push(s, s.cpu_cost_ru / share);
                 }
                 while (!wfq.Empty()) sink += wfq.Pop().req_id;
               }
               return total;
             }),
             "ns");
  }

  // common: each tick's keys interned into a fresh KeyArena.
  {
    abase::KeyArena arena;
    uint64_t total = 0;
    for (const StreamTick& st : stream) total += st.requests.size();
    out->emplace_back("common.keyarena_intern_ns", TimePerOp([&] {
               for (const StreamTick& st : stream) {
                 arena.Reset();
                 for (const auto& req : st.requests) {
                   sink += arena.InternHashed(req.key_hash, req.key).len;
                 }
               }
               return total;
             }),
             "ns");
  }
  result->Info("replay_requests", std::to_string(reads.size() + writes.size()));
  result->Info("replay_checksum", Hex(sink));
}

}  // namespace perfbench
