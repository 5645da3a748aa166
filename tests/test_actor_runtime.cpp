/// Tests for the pluggable actor runtime: thread-vs-fiber backend
/// equivalence (identical schedules, completions, clocks, and failure
/// statuses on randomized fault-flapping scenarios), fiber stack-pool
/// recycling under spawn/die/restart churn, mailbox interning, and
/// per-shard scheduling determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/kernel.hpp"
#include "platform/builders.hpp"
#include "platform/platform.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"
#include "xbt/settings.hpp"
#include "xbt/str.hpp"

#if defined(__SANITIZE_THREAD__)
#define SG_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SG_UNDER_TSAN 1
#endif
#endif

namespace {

using namespace sg::kernel;
using sg::platform::Platform;

/// TSan cannot follow fiber stack switches once engine/parallel-actors fans
/// them out across worker lanes (the SIMGRID_TSAN option pairs TSan with the
/// thread backend for exactly this reason). Serial fiber runs are fine, so
/// only the TSan + SG_PARALLEL_ACTORS=1 combination skips fiber tests.
bool fiber_lanes_invisible_to_tsan() {
#ifdef SG_UNDER_TSAN
  const char* env = std::getenv("SG_PARALLEL_ACTORS");
  return env != nullptr && std::strcmp(env, "0") != 0 && std::strcmp(env, "") != 0;
#else
  return false;
#endif
}

#define SKIP_IF_FIBER_LANES_UNDER_TSAN()                                             \
  do {                                                                               \
    if (fiber_lanes_invisible_to_tsan())                                             \
      GTEST_SKIP() << "fiber switches across parallel lanes are invisible to TSan"; \
  } while (0)

/// Runs each test body once per backend by flipping the config key; restores
/// the previous backend afterwards so the rest of the suite is unaffected.
class ActorRuntimeTest : public ::testing::Test {
protected:
  void SetUp() override {
    declare_context_config();
    saved_backend_ = sg::config::get(kCfgContextBackend);
  }
  void TearDown() override {
    sg::config::set(kCfgContextBackend, saved_backend_);
  }

  static void use_backend(const std::string& name) {
    sg::config::set(kCfgContextBackend, name);
  }

private:
  std::string saved_backend_;
};

/// Everything observable about one scenario run: an ordered event log (with
/// 9-digit clocks, so "identical schedule" means identical interleaving AND
/// identical timings), the final clock, and the scheduler counters.
struct ScenarioResult {
  std::vector<std::string> log;
  double end_clock = 0.0;
  std::uint64_t wakeups = 0;
  std::uint64_t switches = 0;
  int completions = 0;
};

/// Randomized master/worker with fault flaps: a master farms tasks to
/// auto-restarting workers over per-worker mailboxes while a chaos daemon
/// powers worker hosts off and on. Every completion, timeout, and failure
/// exception lands in the log, so two backends agree iff they made exactly
/// the same scheduling decisions and mapped every wake status identically.
ScenarioResult run_faulty_master_worker(const std::string& backend, unsigned seed) {
  sg::config::set(kCfgContextBackend, backend);

  sg::platform::ClusterSpec spec;
  spec.count = 5;  // node0 = master, nodes 1..4 = workers
  spec.host_speed = 1e9;
  Kernel k(sg::platform::make_cluster(spec));

  ScenarioResult res;
  auto log_event = [&](const std::string& what) {
    res.log.push_back(sg::xbt::format("%.9f %s", k.now(), what.c_str()));
  };

  const int n_workers = 4;
  const int n_tasks = 24;
  const MailboxId results = k.mailbox_by_name("results");
  std::vector<MailboxId> tasks;
  tasks.push_back(kNoMailbox);
  for (int w = 1; w <= n_workers; ++w)
    tasks.push_back(k.mailbox_by_name("tasks:" + std::to_string(w)));

  for (int w = 1; w <= n_workers; ++w) {
    k.spawn("worker" + std::to_string(w), w,
            [&k, &tasks, results, w] {
              while (true) {
                void* raw = k.recv(tasks[static_cast<size_t>(w)]);
                const auto task = reinterpret_cast<std::intptr_t>(raw);
                k.execute(1e8 + 1e7 * static_cast<double>(task));
                k.send(results, raw, 1e4);
              }
            },
            /*daemon=*/true, /*auto_restart=*/true);
  }

  k.spawn("master", 0, [&] {
    sg::xbt::Rng rng(seed);
    for (int t = 1; t <= n_tasks; ++t) {
      const int w = 1 + static_cast<int>(rng.uniform_int(0, n_workers - 1));
      try {
        k.send(tasks[static_cast<size_t>(w)], reinterpret_cast<void*>(static_cast<std::intptr_t>(t)),
               1e5, /*timeout=*/1.5);
        void* ack = k.recv(results, /*timeout=*/1.5);
        ++res.completions;
        log_event(sg::xbt::format("done task=%ld worker=%d", reinterpret_cast<std::intptr_t>(ack), w));
      } catch (const sg::xbt::Exception& e) {
        log_event(sg::xbt::format("fail task=%d worker=%d: %s", t, w, e.what()));
        k.sleep_for(0.25);  // let the flapped host come back
      }
    }
    log_event("master finished");
  });

  k.spawn("chaos", 0,
          [&] {
            sg::xbt::Rng rng(seed * 31 + 7);
            for (int i = 0; i < 5; ++i) {
              k.sleep_for(rng.uniform(0.4, 1.2));
              const int victim = 1 + static_cast<int>(rng.uniform_int(0, n_workers - 1));
              log_event(sg::xbt::format("chaos: host %d off", victim));
              k.host_off(victim);
              k.sleep_for(0.3);
              k.host_on(victim);
              log_event(sg::xbt::format("chaos: host %d on", victim));
            }
          },
          /*daemon=*/true);

  res.end_clock = k.run();
  res.wakeups = k.stats().wakeups;
  res.switches = k.stats().context_switches;
  EXPECT_EQ(backend, std::string(k.context_factory().backend_name()));
  return res;
}

TEST_F(ActorRuntimeTest, ThreadAndFiberBackendsProduceIdenticalSchedules) {
  SKIP_IF_FIBER_LANES_UNDER_TSAN();
  for (unsigned seed : {1u, 17u, 424242u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ScenarioResult fiber = run_faulty_master_worker("fiber", seed);
    const ScenarioResult thread = run_faulty_master_worker("thread", seed);

    EXPECT_EQ(fiber.log, thread.log);
    EXPECT_NEAR(fiber.end_clock, thread.end_clock, 1e-9);
    EXPECT_EQ(fiber.completions, thread.completions);
    EXPECT_EQ(fiber.wakeups, thread.wakeups);
    EXPECT_EQ(fiber.switches, thread.switches);
    EXPECT_GT(fiber.completions, 0);        // the scenario must do real work
    EXPECT_FALSE(fiber.log.empty());
    // With fault flaps in play, some sends/recvs must have failed — that is
    // the WakeStatus mapping the equivalence is meant to cover.
    bool saw_failure = false;
    for (const std::string& line : fiber.log)
      saw_failure |= line.find("fail ") != std::string::npos;
    EXPECT_TRUE(saw_failure);
  }
}

TEST_F(ActorRuntimeTest, BackendsAgreeOnPureYieldInterleaving) {
  SKIP_IF_FIBER_LANES_UNDER_TSAN();
  auto run_yield_storm = [](const std::string& backend) {
    sg::config::set(kCfgContextBackend, backend);
    Kernel k(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
    std::vector<std::string> order;
    for (int a = 0; a < 8; ++a)
      k.spawn("y" + std::to_string(a), a % 2, [&k, &order, a] {
        for (int round = 0; round < 5; ++round) {
          order.push_back(std::to_string(a) + ":" + std::to_string(round));
          k.yield_now();
        }
      });
    k.run();
    return order;
  };
  EXPECT_EQ(run_yield_storm("fiber"), run_yield_storm("thread"));
}

TEST_F(ActorRuntimeTest, FiberPoolRecyclesStacksAcrossWaves) {
  SKIP_IF_FIBER_LANES_UNDER_TSAN();
  use_backend("fiber");
  Kernel k(sg::platform::make_dumbbell(1e9, 1e8, 0.0));

  constexpr int kWaves = 5;
  constexpr int kPerWave = 400;
  k.spawn("driver", 0, [&k] {
    for (int wave = 0; wave < kWaves; ++wave) {
      for (int i = 0; i < kPerWave; ++i)
        k.spawn("ephemeral", i % 2, [&k] { k.execute(1e6); });
      k.sleep_for(1.0);  // every spawned actor finishes well within this
    }
  });
  k.run();

  EXPECT_EQ(k.stats().actors_spawned, 1u + kWaves * kPerWave);
  const ContextFactory::PoolStats pool = k.context_factory().pool_stats();
  // Stacks are recycled between waves: the pool never carves anywhere near
  // one stack per spawned actor, only enough for the peak concurrency.
  EXPECT_GT(pool.stacks_allocated, 0u);
  EXPECT_LE(pool.stacks_allocated, static_cast<size_t>(kPerWave) + 2);
  EXPECT_EQ(pool.stacks_free, pool.stacks_allocated);  // all dead => all parked
  EXPECT_GE(pool.stack_bytes, 4096u);
}

TEST_F(ActorRuntimeTest, FiberPoolSurvivesKillRestartChurn) {
  SKIP_IF_FIBER_LANES_UNDER_TSAN();
  use_backend("fiber");
  sg::platform::ClusterSpec spec;
  spec.count = 3;
  Kernel k(sg::platform::make_cluster(spec));

  int restarts = 0;
  for (int i = 0; i < 50; ++i)
    k.spawn("flappy" + std::to_string(i), 1 + i % 2,
            [&k, &restarts] {
              ++restarts;
              k.sleep_for(100.0);  // parked until killed by the next flap
            },
            /*daemon=*/true, /*auto_restart=*/true);
  k.spawn("flapper", 0, [&k] {
    for (int round = 0; round < 4; ++round) {
      k.sleep_for(1.0);
      k.host_off(1);
      k.host_on(1);
      k.sleep_for(1.0);
      k.host_off(2);
      k.host_on(2);
    }
  });
  k.run();

  EXPECT_GT(restarts, 50);  // every flap re-ran the residents of that host
  const ContextFactory::PoolStats pool = k.context_factory().pool_stats();
  // Kill + restart reuses parked stacks instead of growing the pool.
  EXPECT_LE(pool.stacks_allocated, 60u);
}

TEST_F(ActorRuntimeTest, MailboxNamesInternToStableDenseIds) {
  Kernel k(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  const MailboxId a = k.mailbox_by_name("alpha");
  const MailboxId b = k.mailbox_by_name("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, k.mailbox_by_name("alpha"));  // same name, same id
  EXPECT_EQ(b, k.mailbox_by_name("beta"));
  EXPECT_EQ("alpha", k.mailbox_name(a));  // round-trip
  EXPECT_EQ("beta", k.mailbox_name(b));
}

TEST_F(ActorRuntimeTest, StringAndIdKeyedSimcallsShareTheMailbox) {
  Kernel k(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  const MailboxId mbox = k.mailbox_by_name("shared");
  std::intptr_t got = 0;
  k.spawn("tx", 0, [&k] {
    k.send(k.mailbox_by_name("shared"), reinterpret_cast<void*>(static_cast<std::intptr_t>(99)), 1e3);
  });
  k.spawn("rx", 1, [&k, &got, mbox] {
    got = reinterpret_cast<std::intptr_t>(k.recv(mbox));  // id-keyed recv
  });
  k.run();
  EXPECT_EQ(99, got);
  EXPECT_FALSE(k.comm_waiting(mbox));
}

TEST_F(ActorRuntimeTest, ShardedRunQueuesStayDeterministicAcrossBackends) {
  SKIP_IF_FIBER_LANES_UNDER_TSAN();
  auto run_sharded = [](const std::string& backend) {
    sg::config::set(kCfgContextBackend, backend);
    Platform p;
    for (int z = 0; z < 3; ++z) {
      sg::platform::ClusterZoneSpec zone;
      zone.name = "zone" + std::to_string(z);
      zone.host_prefix = "z" + std::to_string(z) + "-";
      zone.count = 4;
      p.add_cluster_zone(zone);
    }
    p.seal();
    Kernel k(std::move(p));
    EXPECT_GT(k.engine().platform().shard_map().shard_count, 1);

    // One log per actor: bodies may run on different worker lanes under
    // engine/parallel-actors, so they must not share a log vector.
    std::vector<std::vector<std::string>> logs(12);
    const MailboxId ring = k.mailbox_by_name("ring");
    for (int a = 0; a < 12; ++a)
      k.spawn("actor" + std::to_string(a), a, [&k, &logs, &ring, a] {
        for (int round = 0; round < 3; ++round) {
          if (a % 2 == 0) {
            k.send(ring, reinterpret_cast<void*>(static_cast<std::intptr_t>(a + 1)), 1e4);
          } else {
            k.recv(ring);
          }
          logs[static_cast<size_t>(a)].push_back(sg::xbt::format("%d:%d@%.9f", a, round, k.now()));
        }
      });
    const double end = k.run();
    std::vector<std::string> order;
    for (const auto& log : logs)
      order.insert(order.end(), log.begin(), log.end());
    order.push_back(sg::xbt::format("end@%.9f", end));
    return order;
  };
  const auto fiber = run_sharded("fiber");
  const auto thread = run_sharded("thread");
  EXPECT_EQ(fiber, thread);
  const auto fiber_again = run_sharded("fiber");
  EXPECT_EQ(fiber, fiber_again);  // rerun determinism, not just agreement
}

// A killed actor unwinds with normal C++ semantics, and simcalls made by its
// RAII cleanup still work as long as they do not block: a farewell send to a
// live receiver is delivered and a completion test returns.
TEST_F(ActorRuntimeTest, NonBlockingSimcallsCompleteDuringKillUnwind) {
  SKIP_IF_FIBER_LANES_UNDER_TSAN();
  for (const std::string backend : {"fiber", "thread"}) {
    SCOPED_TRACE(backend);
    use_backend(backend);
    Platform p;
    for (int z = 0; z < 2; ++z) {
      sg::platform::ClusterZoneSpec zone;
      zone.name = "zone" + std::to_string(z);
      zone.host_prefix = "z" + std::to_string(z) + "-";
      zone.count = 2;
      p.add_cluster_zone(zone);
    }
    p.add_edge(p.zone_gateway(0), p.zone_gateway(1),
               p.add_link("wan", 4e8, 1e-3, sg::platform::SharingPolicy::kFatpipe));
    p.seal();
    Kernel k(std::move(p));
    const auto& host_shard = k.engine().platform().shard_map().host_shard;
    ASSERT_EQ(host_shard[0], host_shard[1]);
    ASSERT_NE(host_shard[0], host_shard[2]);

    // "near" is homed on the victim's shard (home-mailbox fast path), "far"
    // and "idle" on the other one (recorded simcalls).
    std::intptr_t near_got = 0;
    std::intptr_t far_got = 0;
    k.spawn("near", 1, [&] { near_got = reinterpret_cast<std::intptr_t>(k.recv(k.mailbox_by_name("near"))); });
    k.spawn("far", 2, [&] {
      k.mailbox_by_name("idle");
      far_got = reinterpret_cast<std::intptr_t>(k.recv(k.mailbox_by_name("far")));
    });

    struct Farewell {
      Kernel& k;
      MailboxId near;
      MailboxId far;
      CommPtr never_matched;
      int& tests_done;
      ~Farewell() {
        k.send_detached(near, reinterpret_cast<void*>(std::intptr_t{7}), 1e3);
        k.send_detached(far, reinterpret_cast<void*>(std::intptr_t{8}), 1e3);
        if (!k.comm_test(never_matched))
          ++tests_done;
      }
    };
    int tests_done = 0;
    const ActorId victim = k.spawn("victim", 0, [&] {
      k.sleep_for(0.5);  // let the receivers intern (and so home) their mailboxes
      Farewell guard{k, k.mailbox_by_name("near"), k.mailbox_by_name("far"),
                     k.recv_async(k.mailbox_by_name("idle")), tests_done};
      k.sleep_for(100.0);
    });
    k.spawn("killer", 3, [&] {
      k.sleep_for(1.0);
      k.kill(victim);
    });
    const double end = k.run();

    EXPECT_EQ(7, near_got);
    EXPECT_EQ(8, far_got);
    EXPECT_EQ(1, tests_done);
    EXPECT_FALSE(k.is_alive(victim));
    EXPECT_FALSE(k.deadlocked());
    EXPECT_EQ(0u, k.alive_actor_count());
    EXPECT_LT(end, 2.0);
  }
}

// Comms an actor posted and never waited on must not outlive it as match
// partners: once the actor is killed or its body ends, its queued
// recv_async and non-detached send_async are withdrawn, so a later partner
// times out instead of "completing" with nobody on the other side. A
// detached send still outlives its sender and delivers.
TEST_F(ActorRuntimeTest, DeadActorsQueuedCommsNeverMatch) {
  SKIP_IF_FIBER_LANES_UNDER_TSAN();
  for (const std::string backend : {"fiber", "thread"}) {
    SCOPED_TRACE(backend);
    use_backend(backend);
    Kernel k(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
    int value = 42;
    const ActorId victim = k.spawn("victim", 0, [&] {
      k.recv_async(k.mailbox_by_name("mb"));
      k.send_async(k.mailbox_by_name("out"), &value, 1e3);
      k.send_detached(k.mailbox_by_name("gift"), &value, 1e3);
      k.sleep_for(100.0);
    });
    k.spawn("quitter", 0, [&] { k.recv_async(k.mailbox_by_name("late")); });
    k.spawn("killer", 1, [&] {
      k.sleep_for(1.0);
      k.kill(victim);
    });

    // Each partner arrives at t=2 with a 5 s timeout: it must time out at t=7.
    std::vector<double> timed_out_at;
    auto partner = [&](const char* mailbox, bool sends) {
      return [&, mailbox, sends] {
        k.sleep_for(2.0);
        try {
          if (sends)
            k.send(k.mailbox_by_name(mailbox), &value, 1e3, /*timeout=*/5.0);
          else
            k.recv(k.mailbox_by_name(mailbox), /*timeout=*/5.0);
        } catch (const sg::xbt::TimeoutException&) {
          timed_out_at.push_back(k.now());
        }
      };
    };
    k.spawn("sender", 1, partner("mb", true));
    k.spawn("receiver", 1, partner("out", false));
    k.spawn("late-sender", 1, partner("late", true));
    void* gift = nullptr;
    k.spawn("gift-receiver", 1, [&] {
      k.sleep_for(2.0);
      gift = k.recv(k.mailbox_by_name("gift"), /*timeout=*/5.0);
    });
    k.run();

    EXPECT_FALSE(k.is_alive(victim));
    EXPECT_EQ(timed_out_at, (std::vector<double>{7.0, 7.0, 7.0}));
    EXPECT_EQ(gift, &value);
    EXPECT_FALSE(k.deadlocked());
  }
}

}  // namespace
