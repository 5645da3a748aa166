/// Tests for the simulation kernel: actor scheduling, rendezvous
/// communication, timeouts, suspension, kills, failures, restarts.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "config_pin.hpp"
#include "kernel/kernel.hpp"
#include "platform/builders.hpp"
#include "xbt/exception.hpp"

namespace {

using namespace sg::kernel;
using sg::platform::Platform;

class KernelTest : public ::testing::Test {
protected:
  sg::test::NetworkPin net_;

  static Platform two_hosts() { return sg::platform::make_dumbbell(1e9, 1e8, 0.0); }
};

TEST_F(KernelTest, SingleActorRuns) {
  Kernel k(two_hosts());
  bool ran = false;
  k.spawn("a", 0, [&] { ran = true; });
  k.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(k.deadlocked());
}

TEST_F(KernelTest, ExecuteAdvancesClock) {
  Kernel k(two_hosts());
  double end_time = -1;
  k.spawn("a", 0, [&] {
    k.execute(2e9);
    end_time = k.now();
  });
  k.run();
  EXPECT_DOUBLE_EQ(end_time, 2.0);
}

TEST_F(KernelTest, SleepOrdering) {
  Kernel k(two_hosts());
  std::vector<std::string> order;
  k.spawn("slow", 0, [&] {
    k.sleep_for(2.0);
    order.push_back("slow");
  });
  k.spawn("fast", 1, [&] {
    k.sleep_for(1.0);
    order.push_back("fast");
  });
  const double end = k.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "fast");
  EXPECT_EQ(order[1], "slow");
  EXPECT_DOUBLE_EQ(end, 2.0);
}

TEST_F(KernelTest, SendRecvTransfersPayloadAndTime) {
  Kernel k(two_hosts());
  int value = 42;
  void* received = nullptr;
  double recv_time = -1;
  ActorId src_id = -1;
  ActorId sender_id = k.spawn("sender", 0, [&] { k.send(k.mailbox_by_name("mb"), &value, 1e8); });
  k.spawn("receiver", 1, [&] {
    received = k.recv(k.mailbox_by_name("mb"), -1.0, &src_id);
    recv_time = k.now();
  });
  k.run();
  EXPECT_EQ(received, &value);
  EXPECT_DOUBLE_EQ(recv_time, 1.0);  // 1e8 bytes at 1e8 B/s
  EXPECT_EQ(src_id, sender_id);
}

TEST_F(KernelTest, RendezvousWaitsForBothSides) {
  Kernel k(two_hosts());
  double send_done = -1;
  k.spawn("sender", 0, [&] {
    k.send(k.mailbox_by_name("mb"), nullptr, 1e8);
    send_done = k.now();
  });
  k.spawn("receiver", 1, [&] {
    k.sleep_for(5.0);  // receiver arrives late
    k.recv(k.mailbox_by_name("mb"));
  });
  k.run();
  EXPECT_DOUBLE_EQ(send_done, 6.0);  // 5s wait + 1s transfer
}

TEST_F(KernelTest, RecvTimeoutThrows) {
  Kernel k(two_hosts());
  bool timed_out = false;
  double when = -1;
  k.spawn("receiver", 0, [&] {
    try {
      k.recv(k.mailbox_by_name("empty"), 0.5);
    } catch (const sg::xbt::TimeoutException&) {
      timed_out = true;
      when = k.now();
    }
  });
  k.run();
  EXPECT_TRUE(timed_out);
  EXPECT_DOUBLE_EQ(when, 0.5);
}

TEST_F(KernelTest, SendTimeoutThrows) {
  Kernel k(two_hosts());
  bool timed_out = false;
  k.spawn("sender", 0, [&] {
    try {
      k.send(k.mailbox_by_name("nobody"), nullptr, 100.0, /*timeout=*/1.5);
    } catch (const sg::xbt::TimeoutException&) {
      timed_out = true;
    }
  });
  k.run();
  EXPECT_TRUE(timed_out);
}

TEST_F(KernelTest, TimeoutMidTransferCancelsPeer) {
  // Tiny timeout on the receiver expires while the (huge) transfer is in
  // flight; the sender sees a network failure.
  Kernel k(two_hosts());
  bool recv_timeout = false;
  bool send_failed = false;
  k.spawn("sender", 0, [&] {
    try {
      k.send(k.mailbox_by_name("mb"), nullptr, 1e12);
    } catch (const sg::xbt::NetworkFailureException&) {
      send_failed = true;
    }
  });
  k.spawn("receiver", 1, [&] {
    try {
      k.recv(k.mailbox_by_name("mb"), 2.0);
    } catch (const sg::xbt::TimeoutException&) {
      recv_timeout = true;
    }
  });
  k.run();
  EXPECT_TRUE(recv_timeout);
  EXPECT_TRUE(send_failed);
}

TEST_F(KernelTest, DetachedSendDelivers) {
  Kernel k(two_hosts());
  double sender_free_at = -1;
  void* got = nullptr;
  int value = 7;
  k.spawn("sender", 0, [&] {
    k.send_detached(k.mailbox_by_name("mb"), &value, 1e8);
    sender_free_at = k.now();  // immediately free
  });
  k.spawn("receiver", 1, [&] { got = k.recv(k.mailbox_by_name("mb")); });
  k.run();
  EXPECT_DOUBLE_EQ(sender_free_at, 0.0);
  EXPECT_EQ(got, &value);
}

TEST_F(KernelTest, AsyncCommsOverlap) {
  Kernel k(two_hosts());
  double done_at = -1;
  k.spawn("sender", 0, [&] {
    auto c1 = k.send_async(k.mailbox_by_name("mb1"), nullptr, 1e8);
    auto c2 = k.send_async(k.mailbox_by_name("mb2"), nullptr, 1e8);
    k.comm_wait(c1);
    k.comm_wait(c2);
    done_at = k.now();
  });
  k.spawn("receiver", 1, [&] {
    auto c1 = k.recv_async(k.mailbox_by_name("mb1"));
    auto c2 = k.recv_async(k.mailbox_by_name("mb2"));
    k.comm_wait(c2);
    k.comm_wait(c1);
  });
  k.run();
  // The two transfers share the link: 2 x 1e8 bytes at 1e8 B/s total = 2s.
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST_F(KernelTest, CommTestPolling) {
  Kernel k(two_hosts());
  int polls = 0;
  k.spawn("sender", 0, [&] {
    k.sleep_for(1.0);
    k.send(k.mailbox_by_name("mb"), nullptr, 1e8);
  });
  k.spawn("receiver", 1, [&] {
    auto c = k.recv_async(k.mailbox_by_name("mb"));
    while (!k.comm_test(c)) {
      ++polls;
      k.sleep_for(0.5);
    }
  });
  k.run();
  EXPECT_GE(polls, 3);  // ~4 polls: transfer ends at t=2
}

TEST_F(KernelTest, SuspendResumeActor) {
  Kernel k(two_hosts());
  double end_time = -1;
  ActorId worker = k.spawn("worker", 0, [&] {
    k.execute(2e9);  // 2s of work
    end_time = k.now();
  });
  k.spawn("controller", 1, [&] {
    k.sleep_for(1.0);
    k.suspend(worker);
    k.sleep_for(3.0);
    k.resume(worker);
  });
  k.run();
  // 1s of work, 3s frozen, 1s of work.
  EXPECT_DOUBLE_EQ(end_time, 5.0);
}

TEST_F(KernelTest, SelfSuspendUntilResumed) {
  Kernel k(two_hosts());
  double resumed_at = -1;
  ActorId sleeper = k.spawn("sleeper", 0, [&] {
    k.suspend(k.self()->id());
    resumed_at = k.now();
  });
  k.spawn("waker", 1, [&] {
    k.sleep_for(2.5);
    k.resume(sleeper);
  });
  k.run();
  EXPECT_DOUBLE_EQ(resumed_at, 2.5);
}

TEST_F(KernelTest, KillActorRunsRaii) {
  Kernel k(two_hosts());
  bool cleaned_up = false;
  struct Raii {
    bool* flag;
    ~Raii() { *flag = true; }
  };
  ActorId victim = k.spawn("victim", 0, [&] {
    Raii raii{&cleaned_up};
    k.sleep_for(100.0);
  });
  k.spawn("killer", 1, [&] {
    k.sleep_for(1.0);
    k.kill(victim);
  });
  const double end = k.run();
  EXPECT_TRUE(cleaned_up);
  EXPECT_DOUBLE_EQ(end, 1.0);
  EXPECT_FALSE(k.is_alive(victim));
}

TEST_F(KernelTest, KillWakesBlockedPeer) {
  Kernel k(two_hosts());
  bool peer_failed = false;
  ActorId receiver = k.spawn("receiver", 1, [&] { k.recv(k.mailbox_by_name("mb")); });
  k.spawn("sender", 0, [&] {
    try {
      k.send(k.mailbox_by_name("mb"), nullptr, 1e12);  // huge transfer
    } catch (const sg::xbt::NetworkFailureException&) {
      peer_failed = true;
    }
  });
  k.spawn("killer", 0, [&] {
    k.sleep_for(1.0);
    k.kill(receiver);
  });
  k.run();
  EXPECT_TRUE(peer_failed);
}

TEST_F(KernelTest, ExitSelfTerminates) {
  Kernel k(two_hosts());
  bool after = false;
  k.spawn("quitter", 0, [&] {
    k.exit_self();
    after = true;  // must not run
  });
  k.run();
  EXPECT_FALSE(after);
}

TEST_F(KernelTest, HostFailureKillsResidents) {
  Kernel k(two_hosts());
  bool failure_flagged = false;
  ActorId victim = k.spawn("victim", 0, [&] { k.execute(1e15); });
  k.actor(victim)->on_exit([&](bool failed) { failure_flagged = failed; });
  k.spawn("controller", 1, [&] {
    k.sleep_for(1.0);
    k.host_off(0);
  });
  k.run();
  EXPECT_FALSE(k.is_alive(victim));
  EXPECT_TRUE(failure_flagged);
}

TEST_F(KernelTest, AutoRestartAfterReboot) {
  Kernel k(two_hosts());
  int runs = 0;
  k.spawn("phoenix", 0,
          [&] {
            ++runs;
            Kernel::current()->sleep_for(50.0);
          },
          /*daemon=*/true, /*auto_restart=*/true);
  k.spawn("controller", 1, [&] {
    k.sleep_for(1.0);
    k.host_off(0);
    k.sleep_for(1.0);
    k.host_on(0);
    k.sleep_for(1.0);
  });
  k.run();
  EXPECT_EQ(runs, 2);
}

TEST_F(KernelTest, DaemonsDoNotBlockTermination) {
  Kernel k(two_hosts());
  k.spawn("daemon", 0, [&] {
    while (true)
      k.sleep_for(1.0);
  }, /*daemon=*/true);
  double end_time = -1;
  k.spawn("main", 1, [&] {
    k.sleep_for(2.5);
    end_time = k.now();
  });
  k.run();
  EXPECT_DOUBLE_EQ(end_time, 2.5);
}

TEST_F(KernelTest, DeadlockDetected) {
  Kernel k(two_hosts());
  k.spawn("stuck", 0, [&] { k.recv(k.mailbox_by_name("never")); });
  k.run();
  EXPECT_TRUE(k.deadlocked());
}

TEST_F(KernelTest, SpawnOnDeadHostThrows) {
  Kernel k(two_hosts());
  k.engine().set_host_state(0, false);
  EXPECT_THROW(k.spawn("x", 0, [] {}), sg::xbt::HostFailureException);
  EXPECT_THROW(k.spawn("x", 99, [] {}), sg::xbt::InvalidArgument);
}

TEST_F(KernelTest, DynamicSpawnFromActor) {
  Kernel k(two_hosts());
  std::vector<int> order;
  k.spawn("parent", 0, [&] {
    order.push_back(1);
    k.spawn("child", 1, [&] { order.push_back(2); });
    k.sleep_for(1.0);
    order.push_back(3);
  });
  k.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST_F(KernelTest, YieldInterleavesActors) {
  Kernel k(two_hosts());
  std::vector<std::string> order;
  k.spawn("a", 0, [&] {
    order.push_back("a1");
    k.yield_now();
    order.push_back("a2");
  });
  k.spawn("b", 1, [&] {
    order.push_back("b1");
    k.yield_now();
    order.push_back("b2");
  });
  k.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "a1");
  EXPECT_EQ(order[1], "b1");
  EXPECT_EQ(order[2], "a2");
  EXPECT_EQ(order[3], "b2");
}

TEST_F(KernelTest, DeterministicReplay) {
  auto run_once = [this]() {
    Kernel k(two_hosts());
    std::vector<double> times;
    for (int i = 0; i < 5; ++i) {
      k.spawn("w" + std::to_string(i), i % 2, [&, i] {
        k.execute(1e8 * (i + 1));
        k.send(k.mailbox_by_name("sink"), nullptr, 1e6 * (i + 1));
      });
    }
    k.spawn("sink", 0, [&] {
      for (int i = 0; i < 5; ++i) {
        k.recv(k.mailbox_by_name("sink"));
        times.push_back(k.now());
      }
    });
    k.run();
    return times;
  };
  const auto t1 = run_once();
  const auto t2 = run_once();
  ASSERT_EQ(t1.size(), 5u);
  EXPECT_EQ(t1, t2);
}

TEST_F(KernelTest, ExecutePriorityFavorsHighWeight) {
  Kernel k(two_hosts());
  double hi_done = -1, lo_done = -1;
  k.spawn("hi", 0, [&] {
    k.execute(1e9, 3.0);
    hi_done = k.now();
  });
  k.spawn("lo", 0, [&] {
    k.execute(1e9, 1.0);
    lo_done = k.now();
  });
  k.run();
  EXPECT_NEAR(hi_done, 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(lo_done, 2.0, 1e-9);
}

TEST_F(KernelTest, ParallelExecute) {
  Kernel k(two_hosts());
  double done = -1;
  k.spawn("p", 0, [&] {
    k.execute_parallel({0, 1}, {1e9, 1e9}, {{0.0, 1e8}, {0.0, 0.0}});
    done = k.now();
  });
  k.run();
  EXPECT_NEAR(done, 1.0, 1e-9);
}

TEST_F(KernelTest, UncaughtActorExceptionIsContained) {
  Kernel k(two_hosts());
  k.spawn("thrower", 0, [] { throw std::runtime_error("boom"); });
  bool other_ran = false;
  k.spawn("other", 1, [&] {
    Kernel::current()->sleep_for(1.0);
    other_ran = true;
  });
  k.run();  // must not crash
  EXPECT_TRUE(other_ran);
}

// A killed actor's cleanup kills a partner whose exit callback kills the
// first actor back: that second kill finds the unwind already under way and
// is a no-op, so both end and the run returns.
TEST_F(KernelTest, KillCycleThroughCleanupAndExitCallback) {
  Kernel k(two_hosts());
  ActorId victim = -1;
  const ActorId partner = k.spawn("partner", 1, [&] { k.sleep_for(100.0); });
  k.actor(partner)->on_exit([&](bool) { k.kill(victim); });
  struct KillOnUnwind {
    Kernel& k;
    ActorId target;
    ~KillOnUnwind() { k.kill(target); }
  };
  victim = k.spawn("victim", 0, [&] {
    KillOnUnwind guard{k, partner};
    k.sleep_for(100.0);
  });
  k.spawn("killer", 1, [&] {
    k.sleep_for(1.0);
    k.kill(victim);
  });
  const double end = k.run();
  EXPECT_FALSE(k.is_alive(victim));
  EXPECT_FALSE(k.is_alive(partner));
  EXPECT_DOUBLE_EQ(end, 1.0);
}

// A quantum that starts right after a non-blocking simcall (here a spawn)
// must behave like one that starts a scheduling round: the same step parks
// at the same point, costs the same wakeups and context switches, and lands
// at the same place in the interleaving.
TEST_F(KernelTest, ContinuationQuantumBehavesLikeRoundQuantum) {
  enum class Step { kWaitOnFinishedComm, kFirstUseIntern };
  struct Outcome {
    std::vector<std::string> log;
    std::uint64_t wakeups = 0;
    std::uint64_t switches = 0;
  };
  auto run = [this](Step step, bool after_spawn) {
    Kernel k(two_hosts());
    Outcome out;
    k.spawn("rx", 1, [&] { k.recv(k.mailbox_by_name("mb")); });
    // Spawned before w so that w runs last in every round's batch.
    for (int p = 0; p < 2; ++p)
      k.spawn("p" + std::to_string(p), p, [&, p] {
        k.sleep_for(1.0);
        for (int i = 0; i < 5; ++i) {
          out.log.push_back("p" + std::to_string(p) + ":" + std::to_string(i));
          k.yield_now();
        }
      });
    k.spawn("w", 0, [&] {
      const CommPtr sent = k.send_async(k.mailbox_by_name("mb"), nullptr, 1e3);
      k.sleep_for(1.0);  // the 1e3-byte transfer is long finished by now
      if (after_spawn) {
        k.yield_now();
        k.spawn("child", 0, [] {});  // non-blocking: the step follows in the same commit
      } else {
        k.spawn("child", 0, [] {});
        k.yield_now();  // the step starts the next round's quantum
      }
      if (step == Step::kWaitOnFinishedComm)
        k.comm_wait(sent);
      else
        k.mailbox_by_name("fresh");
      out.log.push_back("w:after-step");
    });
    const Kernel::Stats before = k.stats();
    k.run();
    out.wakeups = k.stats().wakeups - before.wakeups;
    out.switches = k.stats().context_switches - before.context_switches;
    return out;
  };
  for (Step step : {Step::kWaitOnFinishedComm, Step::kFirstUseIntern}) {
    const Outcome round_start = run(step, false);
    const Outcome continuation = run(step, true);
    EXPECT_EQ(round_start.log, continuation.log);
    EXPECT_EQ(round_start.wakeups, continuation.wakeups);
    EXPECT_EQ(round_start.switches, continuation.switches);
  }
}

}  // namespace
