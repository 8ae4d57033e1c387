// Google-benchmark microbenchmarks for the building blocks: storage
// engine point ops, caches, WFQ scheduling, RU estimation, bloom probes,
// and the rescheduler's gain evaluation.
#include <benchmark/benchmark.h>

#include <string>

#include "cache/lru_cache.h"
#include "cache/prefix_tree_store.h"
#include "cache/sa_lru.h"
#include "common/clock.h"
#include "common/rng.h"
#include "resched/pool_model.h"
#include "ru/request_unit.h"
#include "sched/wfq_queue.h"
#include "storage/bloom.h"
#include "storage/lsm_engine.h"

using namespace abase;

namespace {

void BM_LsmPut(benchmark::State& state) {
  SimClock clock;
  storage::LsmEngine engine(storage::LsmOptions{}, &clock);
  Rng rng(1);
  std::string value(static_cast<size_t>(state.range(0)), 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Put("key" + std::to_string(i++ % 100000), value));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LsmPut)->Arg(128)->Arg(1024)->Arg(8192);

void BM_LsmGetHot(benchmark::State& state) {
  SimClock clock;
  storage::LsmEngine engine(storage::LsmOptions{}, &clock);
  for (int i = 0; i < 10000; i++) {
    (void)engine.Put("key" + std::to_string(i), std::string(256, 'v'));
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Get("key" + std::to_string(rng.NextUint64(10000))));
  }
}
BENCHMARK(BM_LsmGetHot);

void BM_BloomProbe(benchmark::State& state) {
  storage::BloomFilter bloom(100000);
  for (int i = 0; i < 100000; i++) bloom.Add("key" + std::to_string(i));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bloom.MayContain("key" + std::to_string(rng.NextUint64(200000))));
  }
}
BENCHMARK(BM_BloomProbe);

void BM_LruGet(benchmark::State& state) {
  cache::LruCache cache(64 << 20);
  for (int i = 0; i < 50000; i++) {
    cache.Put("key" + std::to_string(i), std::string(128, 'v'), 160);
  }
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Get("key" + std::to_string(rng.NextUint64(50000))));
  }
}
BENCHMARK(BM_LruGet);

void BM_SaLruGet(benchmark::State& state) {
  cache::SaLruOptions opts;
  opts.capacity_bytes = 64 << 20;
  cache::SaLruCache cache(opts);
  for (int i = 0; i < 50000; i++) {
    cache.Put("key" + std::to_string(i), std::string(128, 'v'), 160);
  }
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Get("key" + std::to_string(rng.NextUint64(50000))));
  }
}
BENCHMARK(BM_SaLruGet);

// The proxy's content store, point path (AU-LRU contract).
void BM_PrefixTreeStoreGet(benchmark::State& state) {
  SimClock clock;
  cache::AuLruOptions opts;
  opts.capacity_bytes = 64 << 20;
  cache::PrefixTreeStore cache(opts, &clock);
  for (int i = 0; i < 50000; i++) {
    cache.Put("key" + std::to_string(i), std::string(128, 'v'), 160);
  }
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Get("key" + std::to_string(rng.NextUint64(50000))));
  }
}
BENCHMARK(BM_PrefixTreeStoreGet);

void BM_WfqPushPop(benchmark::State& state) {
  sched::WfqQueue queue;
  Rng rng(7);
  uint64_t id = 0;
  for (auto _ : state) {
    sched::SchedRequest req;
    req.req_id = id++;
    req.tenant = static_cast<TenantId>(rng.NextUint64(16));
    req.cpu_cost_ru = 1.0 + rng.NextDouble() * 9;
    req.quota_share = 0.0625;
    queue.Push(req, req.cpu_cost_ru);
    benchmark::DoNotOptimize(queue.Pop());
  }
}
BENCHMARK(BM_WfqPushPop);

void BM_RuEstimate(benchmark::State& state) {
  ru::RuEstimator est;
  Rng rng(8);
  for (auto _ : state) {
    est.ChargeRead(64 + rng.NextUint64(8192),
                   rng.NextBool(0.8) ? ru::ReadServedBy::kDataNodeCache
                                     : ru::ReadServedBy::kDisk);
    benchmark::DoNotOptimize(est.EstimateReadRu());
  }
}
BENCHMARK(BM_RuEstimate);

void BM_MigrationGainEval(benchmark::State& state) {
  resched::NodeModel src(1, 10000, 1e12), dst(2, 10000, 1e12);
  Rng rng(9);
  resched::ReplicaLoad replica;
  for (int h = 0; h < 24; h++) replica.ru.v[h] = rng.NextDouble() * 500;
  replica.storage = LoadVector::Constant(1e9);
  for (int i = 0; i < 20; i++) {
    resched::ReplicaLoad r = replica;
    r.partition = static_cast<PartitionId>(i);
    src.AddReplica(r);
  }
  for (auto _ : state) {
    double before = std::max(src.Deviation(0.5, 0.5),
                             dst.Deviation(0.5, 0.5));
    double after = std::max(src.DeviationWithout(replica, 0.5, 0.5),
                            dst.DeviationWith(replica, 0.5, 0.5));
    benchmark::DoNotOptimize(before - after);
  }
}
BENCHMARK(BM_MigrationGainEval);

}  // namespace

BENCHMARK_MAIN();
