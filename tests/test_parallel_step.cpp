/// Tests for parallel per-shard stepping (`engine/threads`) and the
/// redesigned run/config API.
///
/// The headline property: the phase-structured run_until() produces the SAME
/// simulation at every thread count — not just the same clocks and counts,
/// but the identical ordered event log (fixed shard order, stable intra-
/// shard order), with completion clocks matching to 1e-9. The sweep drives a
/// random multi-zone platform through churn plus trace-driven host/link
/// fault flaps at 1/2/4/8 threads and compares the logs bitwise on
/// (slot, failed) and numerically on clocks.
///
/// Also covered here: the cross-shard coupled-group stress (backbone-
/// crossing comms solved jointly while zone lanes advance concurrently),
/// the codified trace-before-completion tie-break, run_until()'s deadline
/// semantics, and the typed sg::config registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "config_pin.hpp"
#include "core/engine.hpp"
#include "kernel/context.hpp"
#include "platform/platform.hpp"
#include "trace/trace.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"
#include "xbt/settings.hpp"

namespace {

using namespace sg::core;
using sg::platform::ClusterZoneSpec;
using sg::platform::LinkId;
using sg::platform::Platform;
using sg::platform::SharingPolicy;

constexpr double kInf = std::numeric_limits<double>::infinity();

using sg::config::FlagKey;
using sg::config::IntKey;
using sg::test::ConfigPin;
using sg::xbt::InvalidArgument;

class ParallelStepTest : public ::testing::Test {
protected:
  sg::test::NetworkPin net_;
  ConfigPin<FlagKey> sharding_{kCfgSharding, true};
  ConfigPin<FlagKey> kill_transit_{kCfgKillTransitComms, false};
  ConfigPin<IntKey> threads_{kCfgThreads, 1};
};

// ---------------------------------------------------------------------------
// Parallel == serial: the equivalence sweep
// ---------------------------------------------------------------------------

struct LogEntry {
  int slot;
  bool failed;
  double clock;
};

struct SweepResult {
  std::vector<LogEntry> log;
  int completions = 0;
  int failures = 0;
  double final_now = 0;
  unsigned long group_solves = 0;
  int thread_count = 0;
};

// Multi-zone platform with trace-driven fault flaps: square-wave state
// traces on two hosts per zone and on a handful of links (private up/down
// links and, via small ids, the zone backbones). Identical for every engine.
Platform make_flapping_platform(int zones, int per_zone) {
  Platform p;
  for (int z = 0; z < zones; ++z) {
    ClusterZoneSpec zone;
    zone.name = "z" + std::to_string(z);
    zone.count = per_zone;
    zone.host_speed = 1e9;
    zone.link_bandwidth = 1e8;
    zone.link_latency = 5e-5;
    zone.backbone_bandwidth = 6e8;
    zone.backbone_latency = 1e-4;
    zone.backbone_fatpipe = (z % 2 == 1);
    p.add_cluster_zone(zone);
  }
  for (int z = 1; z < zones; ++z) {
    const LinkId wan =
        p.add_link("wan" + std::to_string(z), 4e8, 1e-3, SharingPolicy::kFatpipe);
    p.add_edge(p.zone_gateway(0), p.zone_gateway(z), wan);
  }
  // Host flaps: hosts 0 and 2 of every zone, staggered periods so downs and
  // heals interleave with completions rather than clustering.
  for (int z = 0; z < zones; ++z)
    for (int k : {0, 2}) {
      const int h = z * per_zone + k;
      p.host_mutable(h).state = sg::trace::square_wave(
          "hf" + std::to_string(h), 1.0, 0.013 + 0.0017 * h, 0.0, 0.004 + 0.0011 * k);
    }
  // Link flaps: a stride over all links hits private up/down links and some
  // backbones (same ids in every engine built from this platform).
  for (LinkId l = 1; l < static_cast<LinkId>(p.link_count()); l += 5)
    p.link_mutable(l).state = sg::trace::square_wave(
        "lf" + std::to_string(l), 1.0, 0.019 + 0.0013 * l, 0.0, 0.0035);
  p.seal();
  return p;
}

// Drive the churn scenario on a fresh engine with `threads` worker lanes and
// return the full ordered event log.
SweepResult run_sweep(int threads, int zones, int per_zone, int steps,
                      bool kill_transit) {
  sg::config::set(kCfgKillTransitComms, kill_transit);
  sg::config::set(kCfgThreads, threads);
  Engine e(make_flapping_platform(zones, per_zone));
  sg::config::set(kCfgThreads, 1);

  const int n_hosts = zones * per_zone;
  sg::xbt::Rng rng(20260808);
  struct Slot {
    int src, dst;
    bool exec;
    int starts = 0;
  };
  std::vector<Slot> slots;
  for (int s = 0; s < 2 * n_hosts; ++s) {
    Slot slot;
    slot.exec = (s % 5 == 4);
    const int za = s % zones;
    slot.src = za * per_zone + static_cast<int>(rng.uniform_int(0, per_zone - 1));
    if (s % 3 == 0 && !slot.exec) {
      // A third of the comm slots cross zones: their solver variables span
      // >= 3 shards and join at the backbone coupling layer.
      const int zb = (za + 1 + s / 3) % zones;
      slot.dst = zb * per_zone + static_cast<int>(rng.uniform_int(0, per_zone - 1));
    } else {
      slot.dst = za * per_zone + static_cast<int>(rng.uniform_int(0, per_zone - 1));
    }
    slots.push_back(slot);
  }

  SweepResult r;
  r.thread_count = e.thread_count();
  std::vector<ActionPtr> current(slots.size());
  std::vector<char> idle(slots.size(), 0);
  auto start_slot = [&](size_t k) {
    Slot& s = slots[static_cast<size_t>(k)];
    if (!e.host_is_on(s.src) || !e.host_is_on(s.dst)) {
      idle[k] = 1;
      current[k] = nullptr;
      return;
    }
    const double work = s.exec ? 2.5e7 * (1.0 + (s.starts % 5))
                               : 1.5e6 * (1.0 + ((s.src + s.starts) % 7));
    ActionPtr a = s.exec ? e.exec_start(s.src, work) : e.comm_start(s.src, s.dst, work);
    ++s.starts;
    a->user_data = reinterpret_cast<void*>(k + 1);
    current[k] = a;
    idle[k] = 0;
  };
  // Heals restart the idle slots (the observer fires from the deterministic
  // serial epilogue, in event-log order, at every thread count).
  e.set_resource_observer([&](bool, int, bool now_on) {
    if (!now_on)
      return;
    for (size_t k = 0; k < slots.size(); ++k)
      if (idle[k])
        start_slot(k);
  });
  for (size_t k = 0; k < slots.size(); ++k)
    start_slot(k);

  for (int step = 0; step < steps; ++step) {
    const double before = e.now();
    const auto fired = e.run_until();
    // An empty span with an advanced clock is a latency-expiry-only step;
    // empty with a frozen clock means nothing will ever happen again.
    if (fired.empty() && e.now() == before)
      break;
    for (const auto& ev : fired) {
      const size_t k = reinterpret_cast<size_t>(ev.action->user_data);
      if (k == 0 || k > slots.size())
        continue;
      r.log.push_back({static_cast<int>(k - 1), ev.failed, e.now()});
      if (ev.failed) {
        ++r.failures;
        idle[k - 1] = 1;  // parked until a heal restarts it
        current[k - 1] = nullptr;
      } else {
        ++r.completions;
        start_slot(k - 1);
      }
    }
  }
  r.final_now = e.now();
  r.group_solves = e.sharing_system().group_solve_count();
  return r;
}

void expect_same_simulation(const SweepResult& base, const SweepResult& par) {
  ASSERT_EQ(base.log.size(), par.log.size());
  for (size_t i = 0; i < base.log.size(); ++i) {
    EXPECT_EQ(base.log[i].slot, par.log[i].slot) << "event " << i;
    EXPECT_EQ(base.log[i].failed, par.log[i].failed) << "event " << i;
    EXPECT_NEAR(base.log[i].clock, par.log[i].clock,
                1e-9 * std::max(1.0, base.log[i].clock))
        << "event " << i;
  }
  EXPECT_EQ(base.completions, par.completions);
  EXPECT_EQ(base.failures, par.failures);
  EXPECT_NEAR(base.final_now, par.final_now, 1e-9 * std::max(1.0, base.final_now));
}

TEST_F(ParallelStepTest, ParallelMatchesSerialUnderChurnAndFaultFlaps) {
  constexpr int kZones = 3;
  constexpr int kPerZone = 4;
  constexpr int kSteps = 500;
  const SweepResult serial = run_sweep(1, kZones, kPerZone, kSteps, false);
  ASSERT_EQ(serial.thread_count, 1);
  // The sweep must contain real churn, real failures, and real cross-shard
  // coupling — otherwise it proves nothing.
  ASSERT_GT(serial.completions, 200);
  ASSERT_GT(serial.failures, 10);
  ASSERT_GT(serial.group_solves, 0u);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepResult par = run_sweep(threads, kZones, kPerZone, kSteps, false);
    EXPECT_EQ(par.thread_count, std::min(threads, kZones + 1));
    expect_same_simulation(serial, par);
  }
}

TEST_F(ParallelStepTest, ParallelMatchesSerialWithKillTransitComms) {
  // kill-transit-comms maintains per-host endpoint comm lists; a lane may
  // only touch them when both endpoints are shard-local (the lists_local
  // rule), so this sweep exercises the deferred cross-shard finish path.
  constexpr int kZones = 3;
  constexpr int kPerZone = 4;
  constexpr int kSteps = 400;
  const SweepResult serial = run_sweep(1, kZones, kPerZone, kSteps, true);
  ASSERT_GT(serial.completions, 100);
  ASSERT_GT(serial.failures, 10);
  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_simulation(serial, run_sweep(threads, kZones, kPerZone, kSteps, true));
  }
}

TEST_F(ParallelStepTest, CrossShardCoupledGroupStress) {
  // Every flow crosses the backbone: all solver variables are multi-shard,
  // every solve is a coupled-group join, and NO completion may be finished
  // inside a parallel phase (they all take the deferred path). The event
  // logs must still be identical.
  auto build = [] {
    Platform p;
    for (int z = 0; z < 4; ++z) {
      ClusterZoneSpec zone;
      zone.name = "s" + std::to_string(z);
      zone.count = 4;
      zone.link_bandwidth = 1e8;
      zone.backbone_bandwidth = 5e8;
      p.add_cluster_zone(zone);
    }
    for (int z = 1; z < 4; ++z)
      p.add_edge(p.zone_gateway(0), p.zone_gateway(z),
                 p.add_link("wan" + std::to_string(z), 3e8, 1e-3, SharingPolicy::kShared));
    p.seal();
    return p;
  };
  std::vector<std::vector<LogEntry>> logs_;
  auto run = [&](int threads) {
    sg::config::set(kCfgThreads, threads);
    Engine e(build());
    sg::config::set(kCfgThreads, 1);
    std::vector<LogEntry> log;
    int events = 0;
    for (int i = 0; i < 16; ++i) {
      const int src = (i % 4) * 4 + i % 3;           // zone i%4
      const int dst = ((i + 1 + i / 4) % 4) * 4 + i % 2;  // a different zone
      e.comm_start(src, dst, 1e6 * (1.0 + i % 5))->user_data =
          reinterpret_cast<void*>(static_cast<size_t>(i + 1));
    }
    int spins = 0;
    while (events < 400) {
      const auto fired = e.run_until();
      ASSERT_LT(++spins, 100000);
      for (const auto& ev : fired) {
        const size_t k = reinterpret_cast<size_t>(ev.action->user_data);
        if (k == 0)
          continue;
        ++events;
        log.push_back({static_cast<int>(k - 1), ev.failed, e.now()});
        const int src = ev.action->host();
        e.comm_start(src, ev.action->peer_host(), 1e6 * (1.0 + events % 5))->user_data =
            reinterpret_cast<void*>(k);
      }
    }
    EXPECT_GT(e.sharing_system().group_solve_count(), 0u);
    logs_.push_back(std::move(log));
  };
  run(1);
  run(4);
  ASSERT_EQ(logs_.size(), 2u);
  ASSERT_EQ(logs_[0].size(), logs_[1].size());
  for (size_t i = 0; i < logs_[0].size(); ++i) {
    EXPECT_EQ(logs_[0][i].slot, logs_[1][i].slot) << "event " << i;
    EXPECT_NEAR(logs_[0][i].clock, logs_[1][i].clock, 1e-9 * std::max(1.0, logs_[0][i].clock));
  }
}

TEST_F(ParallelStepTest, DisjointCoupledGroupsSweep) {
  // Two flops-only ptasks span zones {1,2} and {3,4}: no bytes means no
  // backbone links, so each ptask couples exactly its two zone shards and
  // the two groups are DISJOINT — the group partition must produce two
  // independent group solves that the lanes can run concurrently, while
  // intra-zone churn keeps every shard's local solver hot. The event log,
  // and the number of group solves, must match the serial run exactly.
  constexpr int kZones = 5;
  constexpr int kPerZone = 3;
  auto build = [] {
    Platform p;
    for (int z = 0; z < kZones; ++z) {
      ClusterZoneSpec zone;
      zone.name = "g" + std::to_string(z);
      zone.count = kPerZone;
      zone.host_speed = 1e9;
      zone.link_bandwidth = 1e8;
      p.add_cluster_zone(zone);
    }
    p.seal();
    return p;
  };
  auto run = [&](int threads) {
    sg::config::set(kCfgThreads, threads);
    Engine e(build());
    sg::config::set(kCfgThreads, 1);
    SweepResult r;
    r.thread_count = e.thread_count();
    auto start_ptask = [&](size_t slot, int za, int zb, int scale) {
      const std::vector<int> hosts{za * kPerZone, zb * kPerZone + 1};
      const std::vector<double> flops{1e7 * scale, 1.5e7 * scale};
      e.ptask_start(hosts, flops, {})->user_data = reinterpret_cast<void*>(slot + 1);
    };
    auto start_local = [&](size_t slot, int scale) {
      const int z = static_cast<int>(slot) % kZones;
      ActionPtr a = (slot % 2 == 0)
                        ? e.exec_start(z * kPerZone + 1, 4e6 * scale)
                        : e.comm_start(z * kPerZone, z * kPerZone + 2, 3e5 * scale);
      a->user_data = reinterpret_cast<void*>(slot + 1);
    };
    start_ptask(0, 1, 2, 1);
    start_ptask(1, 3, 4, 2);
    for (size_t slot = 2; slot < 12; ++slot)
      start_local(slot, 1 + static_cast<int>(slot) % 4);
    int spins = 0;
    while (static_cast<int>(r.log.size()) < 300) {
      const auto fired = e.run_until();
      if (++spins >= 100000) {
        ADD_FAILURE() << "sweep made no progress";
        break;
      }
      for (const auto& ev : fired) {
        const size_t k = reinterpret_cast<size_t>(ev.action->user_data);
        if (k == 0)
          continue;
        r.log.push_back({static_cast<int>(k - 1), ev.failed, e.now()});
        const int scale = 1 + static_cast<int>(r.log.size()) % 4;
        if (k == 1)
          start_ptask(0, 1, 2, scale);
        else if (k == 2)
          start_ptask(1, 3, 4, scale);
        else
          start_local(k - 1, scale);
      }
    }
    r.final_now = e.now();
    r.group_solves = e.sharing_system().group_solve_count();
    return r;
  };
  const SweepResult serial = run(1);
  ASSERT_EQ(serial.thread_count, 1);
  ASSERT_GT(serial.group_solves, 0u);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepResult par = run(threads);
    EXPECT_EQ(par.thread_count, std::min(threads, kZones + 1));
    // The group partition is lane-independent: same groups, same count.
    EXPECT_EQ(serial.group_solves, par.group_solves);
    expect_same_simulation(serial, par);
  }
}

TEST_F(ParallelStepTest, SameDateMultiShardBatch) {
  // Three zones, one exec each, all completing at EXACTLY t=1.0 — plus a
  // state trace killing the middle zone's host at exactly t=1.0, so that
  // exec fails while its neighbours complete. All shards share the target
  // date: one run_until() must advance them in a single batched fan-out and
  // deliver every event, in fixed shard order, at any thread count.
  constexpr int kZones = 3;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Platform p;
    for (int z = 0; z < kZones; ++z) {
      ClusterZoneSpec zone;
      zone.name = "b" + std::to_string(z);
      zone.count = 2;
      zone.host_speed = 1e9;
      p.add_cluster_zone(zone);
    }
    p.host_mutable(2).state = sg::trace::Trace("die", {{0.0, 1.0}, {1.0, 0.0}}, -1.0);
    p.seal();
    sg::config::set(kCfgThreads, threads);
    Engine e(std::move(p));
    sg::config::set(kCfgThreads, 1);
    std::vector<ActionPtr> execs;
    for (int z = 0; z < kZones; ++z)
      execs.push_back(e.exec_start(z * 2, 1e9));  // completes at exactly 1.0
    const auto fired = e.run_until();
    EXPECT_DOUBLE_EQ(e.now(), 1.0);
    ASSERT_EQ(fired.size(), 3u) << "same-date shards must batch into one round";
    // Fixed shard order: zone 0, zone 1 (the failure), zone 2.
    EXPECT_EQ(fired[0].action.get(), execs[0].get());
    EXPECT_FALSE(fired[0].failed);
    EXPECT_EQ(fired[1].action.get(), execs[1].get());
    EXPECT_TRUE(fired[1].failed) << "equal-date trace event must beat the completion";
    EXPECT_EQ(fired[2].action.get(), execs[2].get());
    EXPECT_FALSE(fired[2].failed);
    for (int z = 0; z < kZones; ++z)
      EXPECT_DOUBLE_EQ(execs[static_cast<size_t>(z)]->finish_time(), 1.0);
  }
}

// ---------------------------------------------------------------------------
// The phase profiler (engine/profile)
// ---------------------------------------------------------------------------

TEST_F(ParallelStepTest, PhaseStatsSanity) {
  const bool prev_profile = sg::config::get(kCfgProfile);
  sg::config::set(kCfgProfile, true);
  sg::config::set(kCfgThreads, 2);
  Engine e(make_flapping_platform(3, 4));
  sg::config::set(kCfgThreads, 1);
  for (int h = 0; h < 12; ++h)
    e.exec_start(h, 1e6 * (1 + h % 3));
  for (int i = 0; i < 8; ++i)
    e.run_until();
  const Engine::PhaseStats s1 = e.phase_stats();
  EXPECT_GT(s1.rounds, 0u);
  EXPECT_GT(s1.events, 0u);
  EXPECT_GT(s1.total_ns, 0u);
  // The four phases tile each round's wall time exactly.
  const auto phase_sum = [](const Engine::PhaseStats& s) {
    return s.solve_ns + s.pick_ns + s.advance_ns + s.epilogue_ns;
  };
  EXPECT_LE(phase_sum(s1), s1.total_ns);
  EXPECT_GE(phase_sum(s1), s1.total_ns / 2);
  // Fanned-out wall time can never exceed total wall time...
  EXPECT_LE(s1.parallel_ns, s1.total_ns);
  // ...so the serial fraction is a proper fraction.
  EXPECT_GE(s1.serial_fraction(), 0.0);
  EXPECT_LE(s1.serial_fraction(), 1.0);
  ASSERT_EQ(s1.lane_busy_ns.size(), static_cast<size_t>(e.thread_count()));
  // Counters are cumulative: more rounds only grow them.
  for (int h = 0; h < 12; ++h)
    if (e.host_is_on(h))
      e.exec_start(h, 2e6);
  for (int i = 0; i < 8; ++i)
    e.run_until();
  const Engine::PhaseStats s2 = e.phase_stats();
  EXPECT_GE(s2.rounds, s1.rounds);
  EXPECT_GE(s2.events, s1.events);
  EXPECT_GE(s2.total_ns, s1.total_ns);
  EXPECT_GE(s2.solve_ns, s1.solve_ns);
  EXPECT_GE(s2.pick_ns, s1.pick_ns);
  EXPECT_GE(s2.advance_ns, s1.advance_ns);
  EXPECT_GE(s2.epilogue_ns, s1.epilogue_ns);
  EXPECT_GE(s2.parallel_ns, s1.parallel_ns);
  // Profiling off: zero overhead, zero stats.
  sg::config::set(kCfgProfile, false);
  Engine off(make_flapping_platform(2, 4));
  off.exec_start(0, 1e6);
  off.run_until();
  EXPECT_EQ(off.phase_stats().total_ns, 0u);
  EXPECT_EQ(off.phase_stats().rounds, 0u);
  sg::config::set(kCfgProfile, prev_profile);
}

TEST_F(ParallelStepTest, ThreadCountIsClampedToShardCount) {
  auto build = [](int zones) {
    Platform p;
    for (int z = 0; z < zones; ++z) {
      ClusterZoneSpec zone;
      zone.name = "c" + std::to_string(z);
      zone.count = 2;
      p.add_cluster_zone(zone);
    }
    p.seal();
    return p;
  };
  sg::config::set(kCfgThreads, 8);
  Engine e(build(2));  // 3 shards: backbone + 2 zones
  EXPECT_EQ(e.thread_count(), 3);
  sg::config::set(kCfgThreads, 8);
  Platform flat;
  flat.add_host("a", 1e9);
  flat.add_host("b", 1e9);
  flat.seal();
  Engine f(std::move(flat));  // single shard: nothing to parallelize
  EXPECT_EQ(f.thread_count(), 1);
  sg::config::set(kCfgThreads, 1);
}

// ---------------------------------------------------------------------------
// The codified tie-break: trace events BEFORE completions at the same date
// ---------------------------------------------------------------------------

TEST_F(ParallelStepTest, TraceEventBeatsCompletionAtTheSameDate) {
  // A 1e9-flop exec on a 1e9 flop/s host completes at exactly t=1.0; a state
  // trace kills the host at exactly t=1.0. Engine::kTraceEventsBeforeCompletions
  // says the host dies FIRST, so the exec must fail — at any thread count.
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Platform p;
    sg::platform::HostSpec spec;
    spec.name = "h";
    spec.speed_flops = 1e9;
    spec.state = sg::trace::Trace("die", {{0.0, 1.0}, {1.0, 0.0}}, -1.0);
    p.add_host(spec);
    p.seal();
    sg::config::set(kCfgThreads, threads);
    Engine e(std::move(p));
    sg::config::set(kCfgThreads, 1);
    auto a = e.exec_start(0, 1e9);
    bool saw = false, failed = false;
    for (int i = 0; i < 10 && !saw; ++i)
      for (const auto& ev : e.run_until())
        if (ev.action.get() == a.get()) {
          saw = true;
          failed = ev.failed;
        }
    ASSERT_TRUE(saw);
    EXPECT_TRUE(failed) << "completion was delivered before the equal-date trace event";
    EXPECT_EQ(a->state(), ActionState::kFailed);
    EXPECT_DOUBLE_EQ(a->finish_time(), 1.0);
    EXPECT_FALSE(e.host_is_on(0));
  }
}

// ---------------------------------------------------------------------------
// run_until() semantics
// ---------------------------------------------------------------------------

TEST_F(ParallelStepTest, RunUntilJumpsToDeadlineWhenNothingFires) {
  Platform p;
  p.add_host("h", 1e9);
  p.seal();
  Engine e(std::move(p));
  // Nothing pending at all: +inf deadline must not move time.
  EXPECT_TRUE(e.run_until().empty());
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  // Finite deadline with nothing due: empty span, clock lands on it.
  EXPECT_TRUE(e.run_until(0.5).empty());
  EXPECT_DOUBLE_EQ(e.now(), 0.5);
  // An event beyond the deadline stays queued; the deadline wins.
  auto a = e.exec_start(0, 1e9);  // completes at 1.5
  EXPECT_TRUE(e.run_until(1.0).empty());
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
  const auto fired = e.run_until(10.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].action.get(), a.get());
  EXPECT_NEAR(e.now(), 1.5, 1e-9);
}

TEST_F(ParallelStepTest, RunUntilSpanStaysValidUntilNextCall) {
  Platform p;
  p.add_host("h", 1e9);
  p.seal();
  Engine e(std::move(p));
  e.exec_start(0, 1e8);
  e.exec_start(0, 1e8);
  const auto fired = e.run_until();
  ASSERT_EQ(fired.size(), 2u);
  // The span is a view into engine-owned storage: readable after the call.
  EXPECT_EQ(fired[0].action->state(), ActionState::kDone);
}

// ---------------------------------------------------------------------------
// The typed config registry
// ---------------------------------------------------------------------------

TEST(ConfigRegistryTest, TypedGettersReturnDeclaredValues) {
  declare_engine_config();
  sg::kernel::declare_context_config();
  EXPECT_GE(sg::config::get(kCfgTcpGamma), 0.0);
  // engine/threads defaults to 1 but the SG_THREADS env var seeds the
  // declared default (the CI TSan job runs this very test with SG_THREADS=4).
  const long threads = sg::config::get(kCfgThreads);
  if (const char* env = std::getenv("SG_THREADS"))
    EXPECT_EQ(threads, std::atol(env));
  else
    EXPECT_EQ(threads, 1);
  EXPECT_TRUE(sg::config::get(kCfgSharding));
  const std::string backend = sg::config::get(sg::kernel::kCfgContextBackend);
  EXPECT_TRUE(backend == "fiber" || backend == "thread") << backend;
  sg::config::set(kCfgThreads, 4);
  EXPECT_EQ(sg::config::get(kCfgThreads), 4);
  sg::config::set(kCfgThreads, 1);
}

TEST(ConfigRegistryTest, TypeMismatchThrows) {
  declare_engine_config();
  // engine/sharding is a flag; reading it through an IntKey is a bug in the
  // caller and must throw, not silently coerce.
  EXPECT_THROW(sg::config::get(sg::config::IntKey{"engine/sharding"}),
               InvalidArgument);
  EXPECT_THROW(sg::config::get(sg::config::StringKey{"engine/threads"}),
               InvalidArgument);
}

TEST(ConfigRegistryTest, UnknownKeyDiagnosticListsValidKeys) {
  declare_engine_config();
  try {
    sg::config::get(sg::config::FlagKey{"engine/no-such-key"});
    FAIL() << "expected InvalidArgument";
  } catch (const sg::xbt::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown config key: engine/no-such-key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("engine/sharding"), std::string::npos) << msg;
    EXPECT_NE(msg.find("engine/threads"), std::string::npos) << msg;
  }
}

TEST(ConfigRegistryTest, IntRangeIsEnforced) {
  declare_engine_config();
  const ConfigPin<IntKey> pin(kCfgThreads, 2);
  EXPECT_THROW(sg::config::set(kCfgThreads, 0), InvalidArgument);
  EXPECT_THROW(sg::config::set(kCfgThreads, 1000), InvalidArgument);
  // --cfg text is range-checked on write as well: rejected, never clamped.
  EXPECT_THROW(sg::config::apply("engine/threads:1e9"), InvalidArgument);
  EXPECT_THROW(sg::config::apply("engine/threads:-3"), InvalidArgument);
  EXPECT_EQ(sg::config::get(kCfgThreads), 2);
}

TEST(ConfigRegistryTest, FlagTextAcceptsOnOffWords) {
  declare_engine_config();
  const ConfigPin<FlagKey> pin(kCfgSharding, false);
  sg::config::apply("engine/sharding:on");
  EXPECT_TRUE(sg::config::get(kCfgSharding));
  for (const char* off : {"off", "0", "false", "no"}) {
    sg::config::apply(std::string("engine/sharding:") + off);
    EXPECT_FALSE(sg::config::get(kCfgSharding)) << off;
  }
  for (const char* on : {"1", "true", "yes"}) {
    sg::config::apply(std::string("engine/sharding:") + on);
    EXPECT_TRUE(sg::config::get(kCfgSharding)) << on;
  }
  EXPECT_THROW(sg::config::apply("engine/sharding:maybe"), InvalidArgument);
}

TEST(ConfigRegistryTest, MalformedTextThrowsNamingTheKey) {
  declare_engine_config();
  const ConfigPin<IntKey> threads(kCfgThreads, 2);
  const double gamma = sg::config::get(kCfgTcpGamma);
  for (const char* item : {"engine/threads:abc", "engine/threads:1e9", "engine/threads:0",
                           "engine/threads:2.5", "engine/threads:4x", "engine/threads:"}) {
    try {
      sg::config::apply(item);
      ADD_FAILURE() << item << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("engine/threads"), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(sg::config::apply("network/tcp-gamma:12kB"), InvalidArgument);
  EXPECT_EQ(sg::config::get(kCfgThreads), 2);
  EXPECT_EQ(sg::config::get(kCfgTcpGamma), gamma);
}

TEST(ConfigRegistryTest, ParseArgsAppliesAndRemovesCfgItems) {
  declare_engine_config();
  const ConfigPin<IntKey> threads(kCfgThreads, 1);
  const ConfigPin<FlagKey> sharding(kCfgSharding, true);
  const ConfigPin<sg::config::NumberKey> gamma(kCfgTcpGamma, 65536.0);
  std::string args[] = {"prog", "8", "--cfg=engine/threads:3",
                        "--cfg=engine/sharding:off,network/tcp-gamma:1000", "tail"};
  char* argv[] = {args[0].data(), args[1].data(), args[2].data(), args[3].data(), args[4].data(),
                  nullptr};
  int argc = 5;
  sg::config::parse_args(argc, argv);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "8");
  EXPECT_STREQ(argv[2], "tail");
  EXPECT_EQ(argv[3], nullptr);
  EXPECT_EQ(sg::config::get(kCfgThreads), 3);
  EXPECT_FALSE(sg::config::get(kCfgSharding));
  EXPECT_EQ(sg::config::get(kCfgTcpGamma), 1000.0);
}

TEST(ConfigRegistryTest, KeysEnumerationDocumentsEnvSeeds) {
  declare_engine_config();
  sg::kernel::declare_context_config();
  bool saw_threads = false, saw_backend = false;
  for (const auto& info : sg::config::keys()) {
    if (info.name == "engine/threads") {
      saw_threads = true;
      EXPECT_EQ(info.env, "SG_THREADS");
      EXPECT_EQ(info.type, sg::config::Type::kInt);
      EXPECT_FALSE(info.description.empty());
    }
    if (info.name == "contexts/backend") {
      saw_backend = true;
      EXPECT_EQ(info.env, "SG_CONTEXTS");
      EXPECT_EQ(info.type, sg::config::Type::kString);
    }
  }
  EXPECT_TRUE(saw_threads);
  EXPECT_TRUE(saw_backend);
}

TEST(ConfigRegistryTest, RawStringKeyedAccessKeepsWorking) {
  // String-keyed text (apply() and the --cfg command line) writes the same
  // typed store the key handles read, and typed writes are what it sees.
  declare_engine_config();
  const ConfigPin<IntKey> pin(kCfgThreads, 1);
  sg::config::apply("engine/threads:2");
  EXPECT_EQ(sg::config::get(kCfgThreads), 2);
  sg::config::apply(" engine/threads : 3 ");  // items are trimmed
  EXPECT_EQ(sg::config::get(kCfgThreads), 3);
}

}  // namespace
