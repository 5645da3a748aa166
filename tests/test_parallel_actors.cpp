/// Tests for `engine/parallel-actors`: fanning actor execution out across
/// the engine's ShardWorkers lanes must be *observably invisible*. The
/// headline sweep drives a randomized fault-flapping master/worker scenario
/// on a multi-zone platform at 1/2/4/8 lanes and compares the ordered event
/// log bitwise, the clocks to 1e-9, and the scheduler counters exactly
/// against the serial (`engine/parallel-actors=0`) baseline.
///
/// Also covered: the all-cross-shard stress where every mailbox's home is
/// the backbone shard (interned from the maestro), so every send, recv,
/// probe, and test a zone actor makes takes the deferred-simcall path and
/// replays in the serial epilogue.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "kernel/context.hpp"
#include "kernel/kernel.hpp"
#include "platform/platform.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"
#include "xbt/settings.hpp"
#include "xbt/str.hpp"

namespace {

using namespace sg::kernel;
using sg::platform::ClusterZoneSpec;
using sg::platform::Platform;

class ParallelActorsTest : public ::testing::Test {
protected:
  void SetUp() override {
    sg::core::declare_engine_config();
    declare_context_config();
    saved_backend_ = sg::config::get(kCfgContextBackend);
    sg::config::set(sg::core::kCfgThreads, 1);
    sg::config::set(sg::core::kCfgParallelActors, false);
  }
  void TearDown() override {
    sg::config::set(kCfgContextBackend, saved_backend_);
    sg::config::set(sg::core::kCfgThreads, 1);
    sg::config::set(sg::core::kCfgParallelActors, false);
  }

private:
  std::string saved_backend_;
};

/// Multi-zone platform so the kernel actually shards its run queues (a flat
/// platform has one shard and the parallel phase never fans out).
Platform make_zoned_platform(int zones, int per_zone) {
  Platform p;
  for (int z = 0; z < zones; ++z) {
    ClusterZoneSpec zone;
    zone.name = "zone" + std::to_string(z);
    zone.host_prefix = "z" + std::to_string(z) + "-";
    zone.count = per_zone;
    zone.host_speed = 1e9;
    zone.link_bandwidth = 1e8;
    zone.link_latency = 5e-5;
    p.add_cluster_zone(zone);
  }
  for (int z = 1; z < zones; ++z) {
    const sg::platform::LinkId wan = p.add_link("wan" + std::to_string(z), 4e8, 1e-3,
                                                sg::platform::SharingPolicy::kFatpipe);
    p.add_edge(p.zone_gateway(0), p.zone_gateway(z), wan);
  }
  p.seal();
  return p;
}

/// Everything observable about one run. The log is the concatenation of
/// per-actor logs in actor order — actors must not share a log vector, since
/// their bodies may run on different worker lanes.
struct SweepResult {
  std::vector<std::string> log;
  double end_clock = 0.0;
  std::uint64_t wakeups = 0;
  std::uint64_t switches = 0;
  int completions = 0;
};

/// Randomized master/worker with fault flaps across four zones: the master
/// (zone 0) farms tasks to auto-restarting workers in every zone over
/// worker-interned mailboxes (cross-shard sends, home-shard recvs) while a
/// chaos daemon powers worker hosts off and on. Completions, timeouts, and
/// failure exceptions land in per-actor logs.
SweepResult run_flapping_master_worker(bool parallel, int lanes, unsigned seed) {
  sg::config::set(sg::core::kCfgThreads, lanes);
  sg::config::set(sg::core::kCfgParallelActors, parallel);

  constexpr int kZones = 4;
  constexpr int kPerZone = 4;
  Kernel k(make_zoned_platform(kZones, kPerZone));
  EXPECT_GT(k.engine().platform().shard_map().shard_count, 1);

  // Two workers per zone, on hosts {1, 2} of each zone (host 0 of zone 0
  // belongs to the master, and chaos only ever flaps worker hosts).
  std::vector<int> worker_hosts;
  for (int z = 0; z < kZones; ++z) {
    worker_hosts.push_back(z * kPerZone + 1);
    worker_hosts.push_back(z * kPerZone + 2);
  }
  const int n_workers = static_cast<int>(worker_hosts.size());

  SweepResult res;
  // log slot 0 = master, 1 = chaos, 2 + w = worker w.
  std::vector<std::vector<std::string>> logs(2 + static_cast<size_t>(n_workers));

  for (int w = 0; w < n_workers; ++w) {
    k.spawn("worker" + std::to_string(w), worker_hosts[static_cast<size_t>(w)],
            [&k, &logs, w] {
              // Interned from the worker body: the mailbox's home is the
              // worker's own shard, so its recv matches inline on its lane
              // while the master's sends defer.
              const MailboxId inbox = k.mailbox_by_name("tasks:" + std::to_string(w));
              const MailboxId results = k.mailbox_by_name("results");
              while (true) {
                void* raw = k.recv(inbox);
                const auto task = reinterpret_cast<std::intptr_t>(raw);
                logs[static_cast<size_t>(2 + w)].push_back(
                    sg::xbt::format("%.9f w%d got task=%ld", k.now(), w, task));
                k.execute(5e7 + 1e7 * static_cast<double>(task % 7));
                k.send(results, raw, 1e4);
              }
            },
            /*daemon=*/true, /*auto_restart=*/true);
  }

  k.spawn("master", 0, [&] {
    const MailboxId results = k.mailbox_by_name("results");
    sg::xbt::Rng rng(seed);
    const int n_tasks = 30;
    for (int t = 1; t <= n_tasks; ++t) {
      const int w = static_cast<int>(rng.uniform_int(0, n_workers - 1));
      try {
        k.send(k.mailbox_by_name("tasks:" + std::to_string(w)),
               reinterpret_cast<void*>(static_cast<std::intptr_t>(t)), 1e5, /*timeout=*/1.5);
        void* ack = k.recv(results, /*timeout=*/1.5);
        ++res.completions;
        logs[0].push_back(sg::xbt::format("%.9f done task=%ld worker=%d", k.now(),
                                          reinterpret_cast<std::intptr_t>(ack), w));
      } catch (const sg::xbt::Exception& e) {
        logs[0].push_back(sg::xbt::format("%.9f fail task=%d worker=%d: %s", k.now(), t, w, e.what()));
        k.sleep_for(0.25);  // let the flapped host come back
      }
    }
    logs[0].push_back(sg::xbt::format("%.9f master finished", k.now()));
  });

  k.spawn("chaos", 3,
          [&] {
            sg::xbt::Rng rng(seed * 31 + 7);
            for (int i = 0; i < 6; ++i) {
              k.sleep_for(rng.uniform(0.3, 1.0));
              const int victim = worker_hosts[rng.uniform_int(0, n_workers - 1)];
              logs[1].push_back(sg::xbt::format("%.9f chaos: host %d off", k.now(), victim));
              k.host_off(victim);
              k.sleep_for(0.2);
              k.host_on(victim);
              logs[1].push_back(sg::xbt::format("%.9f chaos: host %d on", k.now(), victim));
            }
          },
          /*daemon=*/true);

  res.end_clock = k.run();
  res.wakeups = k.stats().wakeups;
  res.switches = k.stats().context_switches;
  for (const auto& log : logs)
    res.log.insert(res.log.end(), log.begin(), log.end());
  return res;
}

TEST_F(ParallelActorsTest, ParallelLanesMatchSerialBitwiseAcrossLaneCounts) {
  for (unsigned seed : {3u, 11u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const SweepResult serial = run_flapping_master_worker(false, 1, seed);
    EXPECT_GT(serial.completions, 0);
    bool saw_failure = false;
    for (const std::string& line : serial.log)
      saw_failure |= line.find("fail ") != std::string::npos;
    EXPECT_TRUE(saw_failure);  // the flaps must actually bite

    for (int lanes : {1, 2, 4, 8}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      const SweepResult par = run_flapping_master_worker(true, lanes, seed);
      EXPECT_EQ(serial.log, par.log);
      EXPECT_NEAR(serial.end_clock, par.end_clock, 1e-9);
      EXPECT_EQ(serial.completions, par.completions);
      EXPECT_EQ(serial.wakeups, par.wakeups);
      EXPECT_EQ(serial.switches, par.switches);
    }
  }
}

/// Every mailbox is interned from the maestro, so its home is shard 0 — the
/// backbone shard, where no actor lives. Every send/recv/probe/test from the
/// zone actors is therefore cross-shard and takes the deferred path; the
/// scenario mixes blocking pairs, async+wait, detached sends, polling via
/// comm_waiting/comm_test, and timeouts that actually fire.
SweepResult run_all_cross_shard_stress(bool parallel, int lanes) {
  sg::config::set(sg::core::kCfgThreads, lanes);
  sg::config::set(sg::core::kCfgParallelActors, parallel);

  constexpr int kZones = 3;
  constexpr int kPerZone = 4;
  constexpr int kPairs = 6;
  Kernel k(make_zoned_platform(kZones, kPerZone));

  std::vector<MailboxId> boxes;
  for (int i = 0; i < kPairs; ++i)
    boxes.push_back(k.mailbox_by_name("x:" + std::to_string(i)));  // maestro-interned: home 0
  const MailboxId nobody = k.mailbox_by_name("nobody-sends-here");

  SweepResult res;
  std::vector<std::vector<std::string>> logs(2 * kPairs);

  for (int i = 0; i < kPairs; ++i) {
    const int tx_host = kPerZone + i % kPerZone;      // zone 1
    const int rx_host = 2 * kPerZone + i % kPerZone;  // zone 2
    auto& tx_log = logs[static_cast<size_t>(2 * i)];
    auto& rx_log = logs[static_cast<size_t>(2 * i + 1)];
    const MailboxId mb = boxes[static_cast<size_t>(i)];

    k.spawn("tx" + std::to_string(i), tx_host, [&k, &tx_log, mb, nobody, i] {
      for (int round = 0; round < 3; ++round) {
        if (i % 3 == 0) {
          k.send_detached(mb, reinterpret_cast<void*>(static_cast<std::intptr_t>(100 * i + round)),
                          2e4);
          k.execute(1e7);  // detached: keep the quantum honest before looping
        } else {
          CommPtr c = k.send_async(mb, reinterpret_cast<void*>(static_cast<std::intptr_t>(100 * i + round)),
                                   2e4);
          k.comm_wait(c);
        }
        tx_log.push_back(sg::xbt::format("%.9f tx%d sent round=%d", k.now(), i, round));
      }
      // A recv on a mailbox nobody sends to: the timeout must fire.
      try {
        k.recv(nobody, /*timeout=*/0.05);
        tx_log.push_back("unexpected recv success");
      } catch (const sg::xbt::TimeoutException&) {
        tx_log.push_back(sg::xbt::format("%.9f tx%d timed out as expected", k.now(), i));
      }
    });

    k.spawn("rx" + std::to_string(i), rx_host, [&k, &rx_log, &res, mb, i] {
      for (int round = 0; round < 3; ++round) {
        if (i % 2 == 0) {
          // Poll the (cross-shard) mailbox before committing to the recv.
          while (!k.comm_waiting(mb))
            k.sleep_for(0.001);
          rx_log.push_back(sg::xbt::format("%.9f rx%d saw a queued send", k.now(), i));
          const auto got = reinterpret_cast<std::intptr_t>(k.recv(mb));
          rx_log.push_back(sg::xbt::format("%.9f rx%d got %ld", k.now(), i, got));
        } else {
          CommPtr c = k.recv_async(mb);
          while (!k.comm_test(c))
            k.sleep_for(0.001);
          const auto got = reinterpret_cast<std::intptr_t>(k.comm_wait(c));
          rx_log.push_back(sg::xbt::format("%.9f rx%d polled %ld", k.now(), i, got));
        }
        ++res.completions;
      }
    });
  }

  res.end_clock = k.run();
  res.wakeups = k.stats().wakeups;
  res.switches = k.stats().context_switches;
  for (const auto& log : logs)
    res.log.insert(res.log.end(), log.begin(), log.end());
  return res;
}

TEST_F(ParallelActorsTest, AllCrossShardTrafficReplaysIdentically) {
  const SweepResult serial = run_all_cross_shard_stress(false, 1);
  EXPECT_EQ(serial.completions, 18);  // 6 pairs x 3 rounds, all delivered
  for (int lanes : {2, 4, 8}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    const SweepResult par = run_all_cross_shard_stress(true, lanes);
    EXPECT_EQ(serial.log, par.log);
    EXPECT_NEAR(serial.end_clock, par.end_clock, 1e-9);
    EXPECT_EQ(serial.completions, par.completions);
    EXPECT_EQ(serial.wakeups, par.wakeups);
    EXPECT_EQ(serial.switches, par.switches);
  }
}

#if defined(__SANITIZE_THREAD__)
#define SG_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SG_UNDER_TSAN 1
#endif
#endif

/// Both context backends must agree under parallel lanes too (thread-backend
/// bodies run on their own OS threads; the phase flag travels on the actor).
TEST_F(ParallelActorsTest, BackendsAgreeUnderParallelLanes) {
#ifdef SG_UNDER_TSAN
  GTEST_SKIP() << "fiber stack switches across worker lanes are invisible to TSan "
                  "(see the SIMGRID_TSAN option: pair TSan with SG_CONTEXTS=thread)";
#endif
  sg::config::set(kCfgContextBackend, "fiber");
  const SweepResult fiber = run_flapping_master_worker(true, 4, 99u);
  sg::config::set(kCfgContextBackend, "thread");
  const SweepResult thread = run_flapping_master_worker(true, 4, 99u);
  EXPECT_EQ(fiber.log, thread.log);
  EXPECT_NEAR(fiber.end_clock, thread.end_clock, 1e-9);
  EXPECT_EQ(fiber.wakeups, thread.wakeups);
  EXPECT_EQ(fiber.switches, thread.switches);
}

}  // namespace
