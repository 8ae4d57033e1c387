// Unit tests for the EventWheel calendar timer and the active-set
// activation invariants it drives (DESIGN.md "Active-set ticking"):
// parked generators wake at their arrival-schedule boundaries, idle
// tenants deactivate (generator park, replication quiescence), and
// control events — workload mutation, node faults — re-activate them.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/event_wheel.h"
#include "common/time_series.h"
#include "sim/cluster_sim.h"

namespace abase {
namespace {

// ---------------------------------------------------------- EventWheel unit --

TEST(EventWheelTest, PopsAtExactTickInSchedulingOrder) {
  EventWheel<int> wheel(8);
  wheel.ScheduleAt(3, 30);
  wheel.ScheduleAt(1, 10);
  wheel.ScheduleAt(3, 31);
  wheel.ScheduleAt(1, 11);
  EXPECT_EQ(wheel.size(), 4u);

  std::vector<int> popped;
  auto collect = [&](int v) { popped.push_back(v); };
  wheel.PopDue(0, collect);
  EXPECT_TRUE(popped.empty());
  wheel.PopDue(1, collect);
  EXPECT_EQ(popped, (std::vector<int>{10, 11}));
  popped.clear();
  wheel.PopDue(2, collect);
  EXPECT_TRUE(popped.empty());
  wheel.PopDue(3, collect);
  EXPECT_EQ(popped, (std::vector<int>{30, 31}));
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.floor(), 4u);
}

TEST(EventWheelTest, PastTicksClampForwardToTheFloor) {
  EventWheel<int> wheel(8);
  std::vector<int> popped;
  auto collect = [&](int v) { popped.push_back(v); };
  for (uint64_t t = 0; t < 5; t++) wheel.PopDue(t, collect);
  EXPECT_EQ(wheel.floor(), 5u);

  // An event scheduled for an already-popped tick must not be lost: it
  // clamps to the next poppable tick.
  wheel.ScheduleAt(2, 99);
  wheel.PopDue(5, collect);
  EXPECT_EQ(popped, (std::vector<int>{99}));
}

TEST(EventWheelTest, OverflowBeyondTheHorizonStillFires) {
  EventWheel<int> wheel(8);  // Events >= 8 ticks out overflow.
  wheel.ScheduleAt(3, 1);
  wheel.ScheduleAt(100, 2);
  wheel.ScheduleAt(1000, 3);
  EXPECT_EQ(wheel.size(), 3u);

  std::vector<int> popped;
  auto collect = [&](int v) { popped.push_back(v); };
  for (uint64_t t = 0; t <= 1000; t++) wheel.PopDue(t, collect);
  EXPECT_EQ(popped, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(wheel.empty());
}

TEST(EventWheelTest, BucketReuseAcrossRevolutions) {
  EventWheel<int> wheel(4);
  // Ticks 1 and 5 share bucket (1 & 3): both must fire at their own
  // tick, not together.
  wheel.ScheduleAt(1, 10);
  wheel.ScheduleAt(5, 50);  // 5 - 0 >= 4 -> overflow path.
  std::vector<int> popped;
  auto collect = [&](int v) { popped.push_back(v); };
  wheel.PopDue(0, collect);
  wheel.PopDue(1, collect);
  EXPECT_EQ(popped, (std::vector<int>{10}));
  // After popping tick 1, tick 5 is within the horizon of new schedules
  // landing in the same bucket.
  wheel.ScheduleAt(5, 51);
  for (uint64_t t = 2; t <= 5; t++) wheel.PopDue(t, collect);
  EXPECT_EQ(popped, (std::vector<int>{10, 51, 50}));
}

// ----------------------------------------------- Activation: arrival wheel --

sim::SimOptions SparseOptions() {
  sim::SimOptions opt;
  opt.seed = 11;
  opt.meta_report_interval_ticks = 0;  // Isolate the generator machinery.
  return opt;
}

meta::TenantConfig WheelTenant(TenantId id) {
  meta::TenantConfig c;
  c.id = id;
  c.name = "t" + std::to_string(id);
  c.tenant_quota_ru = 100000;
  c.num_partitions = 2;
  c.replicas = 1;  // Pools in these tests are tiny.
  c.num_proxies = 1;
  c.num_proxy_groups = 1;
  return c;
}

TEST(ActiveSetTest, FlatZeroGeneratorParksForever) {
  sim::ClusterSim sim(SparseOptions());
  PoolId pool = sim.AddPool(2);
  ASSERT_TRUE(sim.AddTenant(WheelTenant(1), pool).ok());
  sim::WorkloadProfile p;
  p.base_qps = 0;  // Flat zero: no schedule, nothing to wake for.
  sim.SetWorkload(1, p);

  EXPECT_EQ(sim.ActiveGeneratorCount(), 1u);  // Armed at attach.
  sim.Tick();
  EXPECT_EQ(sim.ActiveGeneratorCount(), 0u);  // Parked on first sight.
  EXPECT_EQ(sim.PendingGeneratorWakes(), 0u);  // No boundary to wake at.
  sim.RunTicks(5);
  EXPECT_EQ(sim.ActiveGeneratorCount(), 0u);
  for (const auto& m : sim.History(1)) EXPECT_EQ(m.issued, 0u);
}

TEST(ActiveSetTest, ScheduleBoundaryWakesParkedGenerator) {
  sim::SimOptions opt = SparseOptions();
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(2);
  ASSERT_TRUE(sim.AddTenant(WheelTenant(1), pool).ok());
  sim.PreloadKeys(1, 64, 64);

  // 3-tick cells: burst, silence, burst, silence...
  sim::WorkloadProfile p;
  p.num_keys = 64;
  p.rate_schedule = TimeSeries({200.0, 0.0, 300.0, 0.0});
  p.rate_schedule_step = 3 * opt.tick;
  sim.SetWorkload(1, p);

  sim.RunTicks(12);  // One full schedule revolution.
  const auto& h = sim.History(1);
  ASSERT_EQ(h.size(), 12u);
  for (size_t t = 0; t < h.size(); t++) {
    const bool active_cell = (t / 3) % 2 == 0;
    if (active_cell) {
      EXPECT_GT(h[t].issued, 0u) << "tick " << t;
    } else {
      EXPECT_EQ(h[t].issued, 0u) << "tick " << t;
    }
  }
  // Mid-silence the generator is parked with a wheel wake armed.
  sim.Tick();  // Tick 12: cell 0 again (active).
  EXPECT_EQ(sim.ActiveGeneratorCount(), 1u);
  sim.RunTicks(3);  // Into the zero cell.
  EXPECT_EQ(sim.ActiveGeneratorCount(), 0u);
  EXPECT_EQ(sim.PendingGeneratorWakes(), 1u);
}

TEST(ActiveSetTest, WorkloadMutationReactivatesParkedGenerator) {
  sim::ClusterSim sim(SparseOptions());
  PoolId pool = sim.AddPool(2);
  ASSERT_TRUE(sim.AddTenant(WheelTenant(1), pool).ok());
  sim::WorkloadProfile p;
  p.base_qps = 0;
  p.num_keys = 64;
  sim.SetWorkload(1, p);
  sim.RunTicks(3);
  ASSERT_EQ(sim.ActiveGeneratorCount(), 0u);

  // Control event: scenario scripting flips the rate mid-run. The
  // MutableWorkload hook must re-arm the generator.
  sim.MutableWorkload(1)->base_qps = 120;
  EXPECT_EQ(sim.ActiveGeneratorCount(), 1u);
  sim.Tick();
  EXPECT_EQ(sim.ActiveGeneratorCount(), 1u);
  const auto& h = sim.History(1);
  EXPECT_GT(h.back().issued, 0u);
}

TEST(ActiveSetTest, StaleWheelWakeIsIgnoredAfterReattach) {
  sim::SimOptions opt = SparseOptions();
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(2);
  ASSERT_TRUE(sim.AddTenant(WheelTenant(1), pool).ok());
  sim::WorkloadProfile p;
  p.num_keys = 64;
  p.rate_schedule = TimeSeries({0.0, 100.0});
  p.rate_schedule_step = 2 * opt.tick;
  sim.SetWorkload(1, p);
  sim.Tick();  // Parks in cell 0, wake armed for the cell-1 boundary.
  ASSERT_EQ(sim.PendingGeneratorWakes(), 1u);

  // Re-attaching a flat-zero workload bumps the wake seq: the armed
  // wake must not resurrect the new (parked, schedule-less) workload.
  sim::WorkloadProfile flat;
  flat.base_qps = 0;
  flat.num_keys = 64;
  sim.SetWorkload(1, flat);
  sim.RunTicks(6);
  EXPECT_EQ(sim.ActiveGeneratorCount(), 0u);
  for (const auto& m : sim.History(1)) EXPECT_EQ(m.issued, 0u);
}

TEST(ActiveSetTest, ZeroRateGeneratorTickIsDrawFree) {
  // Parking skips a generator's zero-rate ticks outright; that is only
  // sound if such a tick emits nothing and consumes no RNG, so the next
  // live tick matches a twin that never saw the zero cell.
  constexpr Micros kTick = kMicrosPerSecond;
  sim::WorkloadProfile p;
  p.num_keys = 64;
  p.read_ratio = 0.5;
  p.hash_op_fraction = 0.2;
  p.eventual_read_fraction = 0.3;
  p.rate_schedule = TimeSeries({150.0, 0.0, 150.0});
  p.rate_schedule_step = kTick;
  sim::WorkloadGenerator ticked(1, p, /*seed=*/77);
  sim::WorkloadGenerator skipped(1, p, /*seed=*/77);

  std::vector<ClientRequest> a;
  std::vector<ClientRequest> b;
  ticked.Tick(0, kTick, a);
  skipped.Tick(0, kTick, b);
  ASSERT_FALSE(a.empty());

  ticked.Tick(kTick, kTick, a);  // Exactly-zero cell.
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(ticked.requests_generated(), skipped.requests_generated());

  ticked.Tick(2 * kTick, kTick, a);
  skipped.Tick(2 * kTick, kTick, b);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].req_id, b[i].req_id) << "request " << i;
    EXPECT_EQ(a[i].op, b[i].op) << "request " << i;
    EXPECT_EQ(a[i].key, b[i].key) << "request " << i;
    EXPECT_EQ(a[i].field, b[i].field) << "request " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "request " << i;
    EXPECT_EQ(a[i].consistency, b[i].consistency) << "request " << i;
  }
}

// ------------------------------------------- Deactivation: repl quiescence --

TEST(ActiveSetTest, ReplicationListDrainsToQuiescenceAndRearmsOnFault) {
  sim::SimOptions opt = SparseOptions();
  opt.replication_lag_ticks = 1;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(6);
  for (TenantId t = 1; t <= 4; t++) {
    meta::TenantConfig c = WheelTenant(t);
    c.replicas = 3;
    ASSERT_TRUE(sim.AddTenant(c, pool).ok());
    sim.PreloadKeys(t, 64, 64);
  }
  // Only tenant 1 has traffic; 2-4 are idle after preload.
  sim::WorkloadProfile p;
  p.base_qps = 150;
  p.num_keys = 64;
  p.read_ratio = 0.5;
  sim.SetWorkload(1, p);

  sim.RunTicks(6);
  // Idle tenants' streams are fully shipped and settle off the list;
  // tenant 1 keeps re-entering via its responses.
  EXPECT_LE(sim.ReplActiveCount(), 1u);

  // Control event: a node fault bumps the routing epoch, which must
  // rebuild the whole work list (any placement change can unfreeze a
  // stream).
  sim.FailNode(sim.meta().PrimaryFor(2, 0));
  sim.RunTicks(2);  // Fault lands, then the promotion bumps the epoch.
  // The epoch-triggered rebuild re-listed everyone; quiescent idles
  // drain within the same walk, but the faulted tenant's re-seeded
  // stream (and tenant 1's live one) must stay listed.
  EXPECT_GE(sim.ReplActiveCount(), 2u);
  sim.RunTicks(20);  // Re-replication (8-tick grace) + stream re-seed.
  // Once failover settles and the streams re-seed, idles drain again.
  EXPECT_LE(sim.ReplActiveCount(), 1u);
}

// ------------------------------------------------------- Outcome TTL wheel --

TEST(ActiveSetTest, AbandonedOutcomesExpireThroughTheWheel) {
  sim::SimOptions opt = SparseOptions();
  opt.outcome_ttl_ticks = 3;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(2);
  ASSERT_TRUE(sim.AddTenant(WheelTenant(1), pool).ok());
  sim.PreloadKeys(1, 16, 32);

  ClientRequest get;
  get.req_id = 7001;
  get.tenant = 1;
  get.op = OpType::kGet;
  get.key = "t1:k1";
  get.track_outcome = true;
  sim.InjectRequest(get);
  sim.Tick();
  // Settled in the first tick's Settle, so recorded at tick_count 0.
  EXPECT_EQ(sim.TrackedOutcomeCount(), 1u);
  sim.Tick();
  EXPECT_EQ(sim.TrackedOutcomeCount(), 1u);  // Settled, never collected.
  // Strict expiry (tick_count - recorded > ttl): still tracked once
  // tick_count reaches recorded+ttl, gone one tick later.
  sim.Tick();
  EXPECT_EQ(sim.TrackedOutcomeCount(), 1u);  // tick_count == recorded+ttl.
  sim.Tick();
  EXPECT_EQ(sim.TrackedOutcomeCount(), 0u);  // recorded+ttl+1.
  sim.RunTicks(2);
  EXPECT_EQ(sim.TrackedOutcomeCount(), 0u);  // Swept at recorded+ttl.

  // A collected outcome must not be double-swept or resurrect.
  get.req_id = 7002;
  sim.InjectRequest(get);
  sim.RunTicks(2);
  ASSERT_TRUE(sim.TakeOutcome(7002).has_value());
  sim.RunTicks(4);
  EXPECT_EQ(sim.TrackedOutcomeCount(), 0u);
  EXPECT_FALSE(sim.TakeOutcome(7002).has_value());
}

}  // namespace
}  // namespace abase
