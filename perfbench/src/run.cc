// The run loops: set-up, warm-up, the timed window, the drain and the
// correctness checks, for the generated workloads and for client_scan.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/rng.h"

namespace perfbench {

using abase::sim::ClusterSim;
using abase::sim::TenantTickMetrics;

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

namespace {

/// Ticks per block when the traced run alternates traced and untraced
/// blocks (trace.overhead_ratio compares the two).
constexpr size_t kTraceBlock = 8;
/// Ticks the drain may take before in-flight requests count as lost.
constexpr size_t kMaxDrainTicks = 64;
/// Ticks of the tenant_mix 1-vs-2 worker digest check (traced run).
constexpr size_t kParityTicks = 40;
/// Fewest ticks per block of tick_ms_p95, so that at least ten samples
/// lie beyond each block's p95.
constexpr size_t kP95BlockTicks = 200;
/// Ticks after warm-up of the sched.* pass (see SchedPass). Much shorter
/// than a window, so that a traced run ends well within run.py's 170 s
/// limit.
constexpr size_t kSchedPassTicks = 100;

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Sums of the history rows [from, to) of the given tenants.
struct RowSums {
  uint64_t issued = 0, ok = 0, errors = 0, throttled = 0;
  uint64_t proxy_hits = 0, node_cache_hits = 0, reads_completed = 0;
  uint64_t hedged = 0, hedge_wins = 0;

  void Add(const TenantTickMetrics& m) {
    issued += m.issued;
    ok += m.ok;
    errors += m.errors;
    throttled += m.throttled;
    proxy_hits += m.proxy_hits;
    node_cache_hits += m.node_cache_hits;
    reads_completed += m.reads_completed;
    hedged += m.hedged_reads;
    hedge_wins += m.hedge_wins;
  }
  uint64_t settled() const { return ok + errors; }
  /// TenantTickMetrics::CacheHitRatio over the summed rows.
  double HitRatio() const {
    return Ratio(static_cast<double>(proxy_hits + node_cache_hits),
                 static_cast<double>(proxy_hits + reads_completed));
  }
};

RowSums SumRows(ClusterSim& sim, const WorkloadSpec& spec, size_t from,
                size_t to, bool within_quota_only) {
  RowSums s;
  for (const TenantSpec& ts : spec.tenants) {
    if (within_quota_only && !ts.within_quota) continue;
    const auto& h = sim.History(ts.config.id);
    for (size_t i = from; i < std::min(to, h.size()); i++) s.Add(h[i]);
  }
  return s;
}

/// Requests settled in the most recent tick, over every tenant.
uint64_t LastTickSettled(ClusterSim& sim, const WorkloadSpec& spec) {
  uint64_t n = 0;
  for (const TenantSpec& ts : spec.tenants) {
    const auto& h = sim.History(ts.config.id);
    if (!h.empty()) n += h.back().ok + h.back().errors;
  }
  return n;
}

/// FNV-1a over every counter of the first `ticks` history rows of every
/// tenant (ascending id). Same seed, same digest; any behaviour change
/// moves it.
uint64_t HistoryDigest(ClusterSim& sim, const WorkloadSpec& spec,
                       size_t ticks) {
  uint64_t h = abase::Fnv1a64("perfbench");
  auto mix = [&h](const void* p, size_t n) {
    h = abase::Fnv1a64Continue(
        h, std::string_view(static_cast<const char*>(p), n));
  };
  for (const TenantSpec& ts : spec.tenants) {
    const auto& rows = sim.History(ts.config.id);
    for (size_t i = 0; i < std::min(ticks, rows.size()); i++) {
      const TenantTickMetrics& m = rows[i];
      const uint64_t counts[] = {
          m.issued,          m.ok,          m.errors,
          m.throttled,       m.unavailable, m.redirects,
          m.replica_reads,   m.proxy_hits,  m.node_cache_hits,
          m.disk_reads,      m.reads_completed,
          m.latency_count,   m.hedged_reads, m.hedge_wins,
          m.slo_violations,  static_cast<uint64_t>(m.latency_max)};
      mix(counts, sizeof(counts));
      const double sums[] = {m.ru_charged, m.latency_sum};
      mix(sums, sizeof(sums));
    }
  }
  return h;
}

/// Client latency percentiles (us) over the cumulative histograms of
/// the within-quota tenants.
void VirtPercentiles(ClusterSim& sim, const WorkloadSpec& spec, double* p50,
                     double* p99) {
  abase::Histogram merged(1e9);
  for (const TenantSpec& ts : spec.tenants) {
    if (!ts.within_quota) continue;
    const auto* rt = sim.Tenant(ts.config.id);
    if (rt != nullptr) merged.Merge(rt->latency_hist);
  }
  *p50 = merged.Percentile(50);
  *p99 = merged.Percentile(99);
}

/// Set-ups a run makes before its window. All of them run before it: a
/// set-up after the window reuses the window cluster's freed memory and
/// runs faster than one before it, and a median over both kinds is
/// unsteady.
int Setups(const WorkloadSpec& spec, bool trace) {
  return trace ? 1 : spec.setup_reps;
}

/// Stops generation, ticks until nothing is in flight, and checks per
/// tenant that every issued request settled: issued = ok + errors.
/// Fills attempted / failed over the whole run.
void DrainAndCheck(ClusterSim& sim, const WorkloadSpec& spec,
                   RunResult* r) {
  for (const TenantSpec& ts : spec.tenants) {
    if (auto* p = sim.MutableWorkload(ts.config.id)) p->base_qps = 0;
  }
  size_t drain = 0;
  while ((sim.InflightCount() > 0 || sim.ScanFanoutsInFlight() > 0) &&
         drain < kMaxDrainTicks) {
    sim.Tick();
    drain++;
  }
  r->Info("drain_ticks", std::to_string(drain));
  uint64_t lost = 0;
  for (const TenantSpec& ts : spec.tenants) {
    RowSums s;
    for (const auto& m : sim.History(ts.config.id)) s.Add(m);
    r->attempted += s.issued;
    r->failed += s.errors - s.throttled;
    if (s.issued != s.ok + s.errors) {
      uint64_t missing = s.issued > s.settled() ? s.issued - s.settled() : 0;
      lost += missing;
      r->failed += missing;
      r->Violation("tenant " + std::to_string(ts.config.id) + ": issued " +
                   std::to_string(s.issued) + " != ok " +
                   std::to_string(s.ok) + " + errors " +
                   std::to_string(s.errors));
    }
  }
  r->Info("lost_requests", std::to_string(lost));
}

/// Window metrics shared by both runners: admit/hit ratios over the
/// window rows and the digest over warm-up + window.
void WindowMetrics(ClusterSim& sim, const WorkloadSpec& spec,
                   RunResult* r, double* hit_ratio, double* throttle) {
  const size_t w0 = kWarmupTicks;
  const size_t w1 = w0 + spec.window_ticks;
  RowSums all = SumRows(sim, spec, w0, w1, false);
  RowSums within = SumRows(sim, spec, w0, w1, true);
  *hit_ratio = all.HitRatio();
  *throttle = Ratio(static_cast<double>(within.throttled),
                    static_cast<double>(within.issued));
  r->Info("history_digest", Hex(HistoryDigest(sim, spec, w1)));
}

void AddEndToEnd(RunResult* r, double ops_per_s,
                 const std::vector<double>& tick_ms,
                 const std::vector<double>& setup_s, double peak_rss_mb,
                 double throttle, double hit_ratio, double virt_p50,
                 double virt_p99) {
  // tick_ms_p95: the median of the p95s of consecutive blocks of at
  // least kP95BlockTicks ticks, so a burst of interference from other
  // processes that hits fewer than half the blocks does not move it.
  const size_t blocks = std::max<size_t>(1, tick_ms.size() / kP95BlockTicks);
  const size_t per_block = tick_ms.size() / blocks;
  std::vector<double> block_p95;
  size_t beyond = tick_ms.size();  // Fewest samples beyond a block's p95.
  for (size_t b = 0; b < blocks; b++) {
    auto first = tick_ms.begin() + b * per_block;
    auto last = b + 1 == blocks ? tick_ms.end() : first + per_block;
    const double p =
        abase::ExactPercentile(std::vector<double>(first, last), 95);
    beyond = std::min<size_t>(
        beyond, std::count_if(first, last, [p](double t) { return t > p; }));
    block_p95.push_back(p);
  }
  const double p95 = abase::ExactPercentile(block_p95, 50);
  const double fail_ratio = Ratio(static_cast<double>(r->failed),
                                  static_cast<double>(r->attempted));
  r->Info("tick_samples", std::to_string(tick_ms.size()));
  r->Info("tick_p95_blocks", std::to_string(blocks));
  r->Info("tick_samples_beyond_p95", std::to_string(beyond));
  r->Info("setup_samples", std::to_string(setup_s.size()));
  std::string setups;
  for (double t : setup_s) setups += (setups.empty() ? "" : " ") + Num(t);
  r->Info("setup_s_each", setups);
  r->Info("fail_ratio", Num(fail_ratio));
  r->Info("throttle_ratio", Num(throttle));
  Metrics& m = r->metrics;
  m.emplace_back("ops_per_s", ops_per_s, "ops/s");
  m.emplace_back("tick_ms_p50", abase::ExactPercentile(tick_ms, 50), "ms");
  m.emplace_back("tick_ms_p95", p95, "ms");
  m.emplace_back("setup_s", abase::ExactPercentile(setup_s, 50), "s");
  m.emplace_back("peak_rss_mb", peak_rss_mb, "MB");
  m.emplace_back("success_ratio", 1.0 - fail_ratio, "ratio");
  m.emplace_back("admit_ratio", 1.0 - throttle, "ratio");
  m.emplace_back("hit_ratio", hit_ratio, "ratio");
  m.emplace_back("virt_p50_us", virt_p50, "us");
  m.emplace_back("virt_p99_us", virt_p99, "us");
}

/// A multi-worker workload must give the same history digest over its
/// first warm-up + kParityTicks ticks at 1 worker as at its own count.
void CheckWorkerParity(const WorkloadSpec& spec, RunResult* r) {
  uint64_t digests[2] = {0, 0};
  const int workers[2] = {1, spec.options.sim.data_plane_workers};
  for (int i = 0; i < 2; i++) {
    WorkloadSpec s = spec;
    s.options.sim.data_plane_workers = workers[i];
    SetupTiming timing;
    auto cluster = BuildCluster(s, &timing);
    if (cluster == nullptr) {
      r->Violation("worker parity: set-up failed");
      return;
    }
    cluster->sim().RunTicks(kWarmupTicks + kParityTicks);
    digests[i] =
        HistoryDigest(cluster->sim(), s, kWarmupTicks + kParityTicks);
  }
  r->Info("digest_1_worker", Hex(digests[0]));
  r->Info("digest_" + std::to_string(workers[1]) + "_workers",
          Hex(digests[1]));
  if (digests[0] != digests[1]) {
    r->Violation("history digest differs between 1 and " +
                 std::to_string(workers[1]) + " workers");
  }
}

/// Runs warm-up + kSchedPassTicks ticks of a fresh cluster and drains the
/// node stats after every tick past warm-up, for the per-tick sched.*
/// WFQ stats. DataNode::TakeTickStats is the only way to read them, and
/// taking them zeroes the utilisation the next tick's queueing delay
/// reads, so this pass runs apart from the traced window, whose cluster
/// takes node stats only once, after its last tick. `step` runs one tick.
template <typename StepFn>
void SchedPass(ClusterSim& sim, NodeTotals* sched, StepFn step) {
  for (size_t i = 0; i < kWarmupTicks; i++) step();
  sched->Take(sim, false);
  for (size_t i = 0; i < kSchedPassTicks; i++) {
    step();
    sched->Take(sim, true);
  }
}

void AddTraceOverhead(const TracedWindow& w, Metrics* m) {
  const double traced =
      Ratio(static_cast<double>(w.settled_traced), w.traced_s);
  const double untraced =
      Ratio(static_cast<double>(w.settled_untraced), w.untraced_s);
  m->emplace_back("trace.overhead_ratio", Ratio(traced, untraced), "ratio");
}

/// Tick `i` of the traced window: stage timing only on traced blocks.
/// `step` runs one tick and returns the operations it settled.
template <typename StepFn>
void TracedTick(ClusterSim& sim, size_t i, TracedWindow* w, StepFn step) {
  const bool traced = (i / kTraceBlock) % 2 == 1;
  sim.pipeline().SetStageTiming(traced);
  auto t0 = WallClock::now();
  const uint64_t settled = step();
  const double dt = SecondsSince(t0);
  if (traced) {
    w->traced_s += dt;
    w->settled_traced += settled;
  } else {
    w->untraced_s += dt;
    w->settled_untraced += settled;
  }
}

void BeginTrace(ClusterSim& sim, const WorkloadSpec& spec, TracedWindow* w) {
  w->begin = ReadCounters(sim, spec);
  sim.pipeline().ResetStageNanos();
}

void EndTrace(ClusterSim& sim, const WorkloadSpec& spec, TracedWindow* w) {
  sim.pipeline().SetStageTiming(false);
  w->end = ReadCounters(sim, spec);
  w->nodes.Take(sim, true);
  for (size_t i = 0; i < sim.pipeline().num_stages(); i++) {
    w->stage_nanos.emplace_back(sim.pipeline().stage(i).name(),
                                sim.pipeline().stage_nanos(i));
  }
  RowSums s = SumRows(sim, spec, kWarmupTicks,
                      kWarmupTicks + spec.window_ticks, false);
  w->reads = s.proxy_hits + s.reads_completed;
  w->hedged = s.hedged;
  w->hedge_wins = s.hedge_wins;
}

}  // namespace

// ---------------------------------------------------------------------------
// Generated open-loop workloads
// ---------------------------------------------------------------------------

RunResult RunGenerated(const WorkloadSpec& spec, const Args& args) {
  RunResult r;
  std::vector<double> setup_s;
  SetupTiming timing;
  std::unique_ptr<abase::Cluster> cluster;
  // One timed set-up; it replaces the previous cluster.
  auto set_up = [&] {
    cluster.reset();
    timing = SetupTiming{};
    const double t0 = ProcessCpuSeconds();
    cluster = BuildCluster(spec, &timing);
    setup_s.push_back(ProcessCpuSeconds() - t0);
    return cluster != nullptr;
  };
  for (int i = 0; i < Setups(spec, args.trace); i++) {
    if (!set_up()) {
      r.Violation("set-up failed");
      return r;
    }
  }
  ClusterSim& sim = cluster->sim();
  sim.RunTicks(kWarmupTicks);

  if (args.trace) {
    TracedWindow w;
    BeginTrace(sim, spec, &w);
    for (size_t i = 0; i < spec.window_ticks; i++) {
      TracedTick(sim, i, &w, [&] {
        sim.Tick();
        return LastTickSettled(sim, spec);
      });
    }
    EndTrace(sim, spec, &w);
    double hit_ratio = 0, throttle = 0;
    WindowMetrics(sim, spec, &r, &hit_ratio, &throttle);
    DrainAndCheck(sim, spec, &r);
    if (spec.options.sim.data_plane_workers > 1) CheckWorkerParity(spec, &r);
    AddWindowMetrics(w, sim, spec, &r.metrics);
    AddTraceOverhead(w, &r.metrics);
    AddSetupMetrics(timing, &r.metrics);
    if (!set_up()) {
      r.Violation("set-up failed");
      return r;
    }
    SchedPass(cluster->sim(), &w.sched, [&] { cluster->sim().Tick(); });
    cluster.reset();
    AddSchedMetrics(w.sched, &r.metrics);
    AddCoreMetrics(ReplayCore(spec), &r.metrics);
    AddReplayMetrics(spec, &r.metrics, &r);
    return r;
  }

  std::vector<double> tick_ms;
  const auto wall_start = WallClock::now();
  const double start = ProcessCpuSeconds();
  for (size_t i = 0; i < spec.window_ticks; i++) {
    const double t0 = ProcessCpuSeconds();
    sim.Tick();
    tick_ms.push_back((ProcessCpuSeconds() - t0) * 1e3);
  }
  const double timed_s = ProcessCpuSeconds() - start;
  const double wall_s = SecondsSince(wall_start);
  double virt_p50 = 0, virt_p99 = 0;
  VirtPercentiles(sim, spec, &virt_p50, &virt_p99);
  const double peak_rss_mb = PeakRssMb();
  const RowSums timed = SumRows(sim, spec, kWarmupTicks,
                                kWarmupTicks + spec.window_ticks, false);
  double hit_ratio = 0, throttle = 0;
  WindowMetrics(sim, spec, &r, &hit_ratio, &throttle);
  DrainAndCheck(sim, spec, &r);
  cluster.reset();
  r.Info("window_wall_s", Num(wall_s));
  r.Info("wall_ops_per_s",
         Num(static_cast<double>(timed.settled()) / wall_s));
  AddEndToEnd(&r, static_cast<double>(timed.settled()) / timed_s, tick_ms,
              setup_s, peak_rss_mb, throttle, hit_ratio, virt_p50, virt_p99);
  return r;
}

// ---------------------------------------------------------------------------
// client_scan: closed-loop Client sessions
// ---------------------------------------------------------------------------

namespace {

constexpr double kGetShare = 0.6;
constexpr double kSetShare = 0.3;  // The rest are scans.
constexpr uint32_t kScanLimit = 20;

/// What the session knows about one of its keys.
struct KeyState {
  enum class Known { kNever, kValue, kUnknown };
  Known known = Known::kNever;
  std::string value;
  bool busy = false;  ///< A Get or Set on it is in flight.
};

struct Outstanding {
  abase::Future<abase::Reply> future;
  abase::OpType op = abase::OpType::kGet;
  uint32_t key = 0;
  std::string value;  ///< Set only.
};

struct Session {
  abase::Client client;
  std::string prefix;  ///< "t<T>:s<S>:" — every key of the session.
  abase::Rng rng;
  std::vector<KeyState> keys;
  std::vector<Outstanding> outstanding;
  uint64_t next_value = 0;
};

/// Counters of the client_scan loop.
struct ClientTotals {
  uint64_t submitted = 0;
  uint64_t resolved = 0;
  uint64_t errors = 0;     ///< Non-throttle error replies.
  uint64_t throttled = 0;
  CoreTiming core;
};

std::string KeyName(const Session& s, uint32_t k) {
  return s.prefix + "k" + std::to_string(k);
}

void SubmitOne(Session& s, size_t value_bytes, ClientTotals* t, bool timed) {
  Outstanding o;
  const double u = s.rng.NextDouble();
  abase::Command cmd;
  if (u < kGetShare + kSetShare) {
    uint32_t k = static_cast<uint32_t>(s.rng.NextUint64(s.keys.size()));
    while (s.keys[k].busy) k = (k + 1) % static_cast<uint32_t>(s.keys.size());
    s.keys[k].busy = true;
    o.key = k;
    if (u < kGetShare) {
      o.op = abase::OpType::kGet;
      cmd = abase::Command::Get(KeyName(s, k));
    } else {
      o.op = abase::OpType::kSet;
      o.value = s.prefix + "v" + std::to_string(s.next_value++) + ":";
      o.value.resize(std::max(value_bytes, o.value.size()), 'x');
      cmd = abase::Command::Set(KeyName(s, k), o.value);
    }
  } else {
    o.op = abase::OpType::kScan;
    cmd = abase::Command::ScanPrefix(s.prefix, kScanLimit);
  }
  auto t0 = WallClock::now();
  o.future = s.client.Submit(std::move(cmd));
  if (timed) {
    t->core.submit_s += SecondsSince(t0);
    t->core.submits++;
  }
  t->submitted++;
  s.outstanding.push_back(std::move(o));
}

/// Checks one resolved reply against the session's model.
void CheckReply(Session& s, Outstanding& o, const abase::Reply& reply,
                ClientTotals* t, RunResult* r) {
  if (!reply.ok() && !reply.status.IsNotFound()) {
    if (reply.status.IsThrottled()) {
      t->throttled++;
    } else {
      t->errors++;
    }
    if (o.op == abase::OpType::kSet) {
      s.keys[o.key].known = KeyState::Known::kUnknown;
    }
    return;
  }
  if (o.op == abase::OpType::kSet) {
    s.keys[o.key].known = KeyState::Known::kValue;
    s.keys[o.key].value = o.value;
    return;
  }
  if (o.op == abase::OpType::kGet) {
    const KeyState& ks = s.keys[o.key];
    if (ks.known == KeyState::Known::kUnknown) return;
    const bool want_found = ks.known == KeyState::Known::kValue;
    if (reply.status.IsNotFound() == want_found ||
        (want_found && reply.value != ks.value)) {
      r->Violation("read-your-writes: Get " + KeyName(s, o.key) +
                   (want_found ? " missed the last acked Set"
                               : " found a never-set key"));
    }
    return;
  }
  // Scan: key-ordered, inside its prefix, at most its limit.
  auto entries = reply.ScanEntries();
  if (entries.size() > kScanLimit) {
    r->Violation("scan " + s.prefix + " returned " +
                 std::to_string(entries.size()) + " > limit");
  }
  for (size_t i = 0; i < entries.size(); i++) {
    const std::string& key = entries[i].first;
    if (key.compare(0, s.prefix.size(), s.prefix) != 0) {
      r->Violation("scan " + s.prefix + " returned foreign key " + key);
      break;
    }
    if (i > 0 && !(entries[i - 1].first < key)) {
      r->Violation("scan " + s.prefix + " out of key order at " + key);
      break;
    }
  }
}

/// Resolves every ready future of every session, checks it, and keeps
/// each session at its depth. Latencies of ok replies go to `lat_us`
/// when non-null.
void Collect(std::vector<Session>& sessions, const WorkloadSpec& spec,
             size_t value_bytes, bool resubmit, bool timed,
             std::vector<double>* lat_us, ClientTotals* t, RunResult* r) {
  for (Session& s : sessions) {
    size_t done = 0;
    for (size_t i = 0; i < s.outstanding.size();) {
      Outstanding& o = s.outstanding[i];
      if (!o.future.ready()) {
        i++;
        continue;
      }
      const abase::Reply& reply = o.future.value();
      CheckReply(s, o, reply, t, r);
      if (o.op != abase::OpType::kScan) s.keys[o.key].busy = false;
      if (lat_us != nullptr && (reply.ok() || reply.status.IsNotFound())) {
        lat_us->push_back(static_cast<double>(reply.LatencyMicros()));
      }
      if (timed) t->core.resolve_ticks_sum += reply.LatencyTicks();
      t->resolved++;
      done++;
      s.outstanding[i] = std::move(s.outstanding.back());
      s.outstanding.pop_back();
    }
    if (resubmit) {
      while (s.outstanding.size() < spec.session_depth) {
        SubmitOne(s, value_bytes, t, timed);
      }
    }
  }
}

std::vector<Session> OpenSessions(abase::Cluster& cluster,
                                  const WorkloadSpec& spec, uint64_t seed) {
  std::vector<Session> sessions;
  for (const TenantSpec& ts : spec.tenants) {
    for (size_t i = 0; i < spec.sessions_per_tenant; i++) {
      const uint64_t n = sessions.size();
      sessions.push_back(Session{
          cluster.OpenClient(ts.config.id),
          "t" + std::to_string(ts.config.id) + ":s" + std::to_string(i) + ":",
          abase::Rng(abase::MixSeed(seed, n)),
          std::vector<KeyState>(spec.keys_per_session), {}, 0});
    }
  }
  return sessions;
}

}  // namespace

RunResult RunClientScan(const WorkloadSpec& spec, const Args& args) {
  RunResult r;
  std::vector<double> setup_s;
  SetupTiming timing;
  std::unique_ptr<abase::Cluster> cluster;
  std::vector<Session> sessions;
  // One timed set-up (cluster + sessions); it replaces the previous one.
  auto set_up = [&] {
    sessions.clear();
    cluster.reset();
    timing = SetupTiming{};
    const double t0 = ProcessCpuSeconds();
    cluster = BuildCluster(spec, &timing);
    if (cluster == nullptr) return false;
    sessions = OpenSessions(*cluster, spec, args.seed);
    setup_s.push_back(ProcessCpuSeconds() - t0);
    return true;
  };
  for (int i = 0; i < Setups(spec, args.trace); i++) {
    if (!set_up()) {
      r.Violation("set-up failed");
      return r;
    }
  }
  ClusterSim& sim = cluster->sim();
  const size_t value_bytes = spec.tenants.front().profile.value_bytes;
  ClientTotals totals;

  Collect(sessions, spec, value_bytes, true, false, nullptr, &totals, &r);
  for (size_t i = 0; i < kWarmupTicks; i++) {
    cluster->Step();
    Collect(sessions, spec, value_bytes, true, false, nullptr, &totals, &r);
  }

  std::vector<double> step_ms;
  std::vector<double> lat_us;
  TracedWindow w;
  uint64_t resolved_timed = 0;
  double timed_s = 0;
  double virt_p50 = 0, virt_p99 = 0, peak_rss_mb = 0;
  if (args.trace) {
    BeginTrace(sim, spec, &w);
    for (size_t i = 0; i < spec.window_ticks; i++) {
      TracedTick(sim, i, &w, [&] {
        auto t0 = WallClock::now();
        const uint64_t resolved = cluster->Step();
        totals.core.step_s += SecondsSince(t0);
        totals.core.resolved += resolved;
        return resolved;
      });
      Collect(sessions, spec, value_bytes, true, true, nullptr, &totals, &r);
    }
    EndTrace(sim, spec, &w);
  } else {
    const uint64_t resolved0 = totals.resolved;
    const auto wall_start = WallClock::now();
    const double start = ProcessCpuSeconds();
    for (size_t i = 0; i < spec.window_ticks; i++) {
      const double t0 = ProcessCpuSeconds();
      cluster->Step();
      step_ms.push_back((ProcessCpuSeconds() - t0) * 1e3);
      Collect(sessions, spec, value_bytes, true, false, &lat_us, &totals,
              &r);
    }
    timed_s = ProcessCpuSeconds() - start;
    resolved_timed = totals.resolved - resolved0;
    const double wall_s = SecondsSince(wall_start);
    r.Info("window_wall_s", Num(wall_s));
    r.Info("wall_ops_per_s",
           Num(static_cast<double>(resolved_timed) / wall_s));
    VirtPercentiles(sim, spec, &virt_p50, &virt_p99);
    peak_rss_mb = PeakRssMb();
  }

  double hit_ratio = 0, throttle = 0;
  WindowMetrics(sim, spec, &r, &hit_ratio, &throttle);

  // Drain: no new commands; everything submitted must resolve.
  const size_t drain = cluster->Drain(kMaxDrainTicks);
  Collect(sessions, spec, value_bytes, false, false, nullptr, &totals, &r);
  r.Info("drain_ticks", std::to_string(drain));
  uint64_t lost = 0;
  for (const Session& s : sessions) lost += s.outstanding.size();
  r.Info("lost_requests", std::to_string(lost));
  if (lost > 0) {
    r.Violation(std::to_string(lost) + " commands unresolved after drain");
  }
  r.attempted = totals.submitted;
  r.failed += totals.errors + lost;
  r.Info("commands_resolved", std::to_string(totals.resolved));

  if (args.trace) {
    AddWindowMetrics(w, sim, spec, &r.metrics);
    AddTraceOverhead(w, &r.metrics);
    AddCoreMetrics(totals.core, &r.metrics);
    AddSetupMetrics(timing, &r.metrics);
    if (!set_up()) {
      r.Violation("set-up failed");
      return r;
    }
    ClientTotals pass_totals;
    auto step = [&] {
      cluster->Step();
      Collect(sessions, spec, value_bytes, true, false, nullptr, &pass_totals,
              &r);
    };
    Collect(sessions, spec, value_bytes, true, false, nullptr, &pass_totals,
            &r);
    SchedPass(cluster->sim(), &w.sched, step);
    sessions.clear();
    cluster.reset();
    AddSchedMetrics(w.sched, &r.metrics);
    AddReplayMetrics(spec, &r.metrics, &r);
    return r;
  }
  sessions.clear();
  cluster.reset();
  // Reply::LatencyMicros is 0 for proxy hits, so virt_* come from the
  // tenant histograms (proxy hits included), as for generated workloads;
  // the exact reply percentiles are context.
  r.Info("reply_latency_us_p50", Num(abase::ExactPercentile(lat_us, 50)));
  r.Info("reply_latency_us_p99", Num(abase::ExactPercentile(lat_us, 99)));
  AddEndToEnd(&r, static_cast<double>(resolved_timed) / timed_s, step_ms,
              setup_s, peak_rss_mb, throttle, hit_ratio, virt_p50, virt_p99);
  return r;
}

}  // namespace perfbench
