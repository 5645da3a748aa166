/// Tests for the SURF engine: action timing, resource sharing, latency
/// phases, TCP window bound, traces, failures, parallel tasks.
#include <gtest/gtest.h>

#include <cmath>

#include "config_pin.hpp"
#include "core/engine.hpp"
#include "platform/builders.hpp"
#include "trace/trace.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"
#include "xbt/str.hpp"

namespace {

using namespace sg::core;
using sg::platform::Platform;

/// Pin the model parameters to clean values; the pin restores them afterwards.
class EngineTest : public ::testing::Test {
protected:
  sg::test::NetworkPin net_;

  /// Run the engine until the given action completes; returns finish time.
  static double run_until_done(Engine& e, const ActionPtr& a) {
    for (int guard = 0; guard < 100000; ++guard) {
      if (a->state() != ActionState::kRunning && a->state() != ActionState::kSuspended)
        return a->finish_time();
      e.run_until();
    }
    ADD_FAILURE() << "action never completed";
    return -1;
  }
};

TEST_F(EngineTest, ExecTiming) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 2e9);
  EXPECT_DOUBLE_EQ(run_until_done(e, a), 2.0);
  EXPECT_EQ(a->state(), ActionState::kDone);
}

TEST_F(EngineTest, TwoExecsShareCpu) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 1e9);
  auto b = e.exec_start(0, 1e9);
  run_until_done(e, a);
  // Each ran at 5e8 flop/s -> both end at t=2.
  EXPECT_DOUBLE_EQ(a->finish_time(), 2.0);
  EXPECT_DOUBLE_EQ(run_until_done(e, b), 2.0);
}

TEST_F(EngineTest, ExecPriorityShares) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto hi = e.exec_start(0, 1e9, 3.0);
  auto lo = e.exec_start(0, 1e9, 1.0);
  run_until_done(e, hi);
  // hi gets 7.5e8, lo 2.5e8 until hi ends at 4/3.
  EXPECT_NEAR(hi->finish_time(), 4.0 / 3.0, 1e-9);
  run_until_done(e, lo);
  // lo: did 1/3e9 flops by t=4/3, then full speed: 4/3 + 2/3 = 2.
  EXPECT_NEAR(lo->finish_time(), 2.0, 1e-9);
}

TEST_F(EngineTest, ExecStaggeredStarts) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 2e9);
  // Advance time to 1.0, then start a competitor.
  e.run_until(1.0);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
  auto b = e.exec_start(0, 1e9);
  run_until_done(e, a);
  // a has 1e9 left at t=1, shares at 5e8 -> needs 2s more.
  EXPECT_DOUBLE_EQ(a->finish_time(), 3.0);
  // b: 5e8 for 2s = 1e9 done exactly when a ends.
  EXPECT_DOUBLE_EQ(run_until_done(e, b), 3.0);
}

TEST_F(EngineTest, CommLatencyPlusBandwidth) {
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 1e-3));
  auto c = e.comm_start(0, 1, 1e8);
  const double t = run_until_done(e, c);
  EXPECT_NEAR(t, 1e-3 + 1.0, 1e-9);
}

TEST_F(EngineTest, ZeroByteCommTakesLatencyOnly) {
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 5e-3));
  auto c = e.comm_start(0, 1, 0.0);
  EXPECT_NEAR(run_until_done(e, c), 5e-3, 1e-12);
}

TEST_F(EngineTest, TwoFlowsShareLink) {
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  auto c1 = e.comm_start(0, 1, 1e8);
  auto c2 = e.comm_start(0, 1, 1e8);
  run_until_done(e, c1);
  EXPECT_NEAR(c1->finish_time(), 2.0, 1e-9);
  EXPECT_NEAR(run_until_done(e, c2), 2.0, 1e-9);
}

TEST_F(EngineTest, OppositeFlowsAlsoShare) {
  // Links are full-duplex-agnostic single resources here (CM02 behaviour):
  // both directions contend.
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  auto c1 = e.comm_start(0, 1, 5e7);
  auto c2 = e.comm_start(1, 0, 5e7);
  run_until_done(e, c1);
  EXPECT_NEAR(c1->finish_time(), 1.0, 1e-9);
  EXPECT_NEAR(run_until_done(e, c2), 1.0, 1e-9);
}

TEST_F(EngineTest, FatpipeDoesNotDivide) {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l = p.add_link("bb", 1e8, 0.0, sg::platform::SharingPolicy::kFatpipe);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  auto c1 = e.comm_start(0, 1, 1e8);
  auto c2 = e.comm_start(0, 1, 1e8);
  run_until_done(e, c1);
  EXPECT_NEAR(c1->finish_time(), 1.0, 1e-9);
  EXPECT_NEAR(run_until_done(e, c2), 1.0, 1e-9);
}

TEST_F(EngineTest, TcpWindowBoundsLongFatLinks) {
  sg::config::set(kCfgTcpGamma, 65536.0);
  // WAN link: 50ms one-way latency -> cap = 65536 / 0.1 = 655360 B/s.
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.05));
  auto c = e.comm_start(0, 1, 655360.0);
  const double t = run_until_done(e, c);
  EXPECT_NEAR(t, 0.05 + 1.0, 1e-6);
}

TEST_F(EngineTest, RateLimitedComm) {
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  auto c = e.comm_start(0, 1, 1e7, /*rate_limit=*/1e6);
  EXPECT_NEAR(run_until_done(e, c), 10.0, 1e-9);
}

TEST_F(EngineTest, LoopbackComm) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto c = e.comm_start(0, 0, 1e9);
  const double t = run_until_done(e, c);
  // loopback defaults: 1e10 B/s, 1e-7 s latency
  EXPECT_NEAR(t, 1e-7 + 0.1, 1e-9);
}

TEST_F(EngineTest, MultiHopRouteSharesEveryLink) {
  // chain a - m - b; flow a->b and flow a->m compete on the first link.
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto m = p.add_host("m", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l1 = p.add_link("l1", 1e8, 0.0);
  auto l2 = p.add_link("l2", 1e8, 0.0);
  p.add_edge(a, m, l1);
  p.add_edge(m, b, l2);
  Engine e(std::move(p));
  auto long_flow = e.comm_start(0, 2, 1e8);
  auto short_flow = e.comm_start(0, 1, 5e7);
  run_until_done(e, short_flow);
  EXPECT_NEAR(short_flow->finish_time(), 1.0, 1e-9);  // 5e7 at 5e7/s
  run_until_done(e, long_flow);
  // long flow: 5e7 B by t=1 (rate 5e7), then full 1e8 -> 0.5s more.
  EXPECT_NEAR(long_flow->finish_time(), 1.5, 1e-9);
}

TEST_F(EngineTest, BandwidthFactorApplied) {
  sg::config::set(kCfgBandwidthFactor, 0.5);
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  auto c = e.comm_start(0, 1, 1e8);
  EXPECT_NEAR(run_until_done(e, c), 2.0, 1e-9);
}

TEST_F(EngineTest, SuspendResumeFreezesProgress) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 2e9);
  e.run_until(1.0);
  a->suspend();
  EXPECT_EQ(a->state(), ActionState::kSuspended);
  e.run_until(5.0);  // nothing progresses
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  EXPECT_NEAR(a->remaining(), 1e9, 1.0);
  a->resume();
  EXPECT_DOUBLE_EQ(run_until_done(e, a), 6.0);
}

TEST_F(EngineTest, CancelAction) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 2e9);
  e.run_until(0.5);
  a->cancel();
  EXPECT_EQ(a->state(), ActionState::kCanceled);
  auto events = e.run_until();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].action.get(), a.get());
}

TEST_F(EngineTest, AvailabilityTraceSlowsExec) {
  Platform p;
  sg::platform::HostSpec spec;
  spec.name = "h";
  spec.speed_flops = 1e9;
  // 100% for 1s, then 50% for 1s, repeating.
  spec.availability = sg::trace::square_wave("avail", 1.0, 1.0, 0.5, 1.0);
  p.add_host(spec);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 2e9);
  // 1e9 flops in [0,1) at full speed; 5e8 in [1,2); rest 5e8 in [2, 2.5).
  EXPECT_NEAR(run_until_done(e, a), 2.5, 1e-9);
}

TEST_F(EngineTest, StateTraceFailsRunningExec) {
  Platform p;
  sg::platform::HostSpec spec;
  spec.name = "h";
  spec.speed_flops = 1e9;
  spec.state = sg::trace::Trace("state", {{0.0, 1.0}, {1.5, 0.0}}, -1.0);
  p.add_host(spec);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 1e12);
  bool failed = false;
  for (int i = 0; i < 1000 && !failed; ++i) {
    for (const auto& ev : e.run_until())
      if (ev.action.get() == a.get() && ev.failed)
        failed = true;
  }
  EXPECT_TRUE(failed);
  EXPECT_EQ(a->state(), ActionState::kFailed);
  EXPECT_DOUBLE_EQ(a->finish_time(), 1.5);
  EXPECT_FALSE(e.host_is_on(0));
  EXPECT_THROW(e.exec_start(0, 1.0), sg::xbt::HostFailureException);
}

TEST_F(EngineTest, LinkFailureKillsComm) {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  sg::platform::LinkSpec lspec;
  lspec.name = "l";
  lspec.bandwidth_Bps = 1e6;
  lspec.latency_s = 0.0;
  lspec.state = sg::trace::Trace("ls", {{0.0, 1.0}, {2.0, 0.0}}, -1.0);
  auto l = p.add_link(lspec);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  auto c = e.comm_start(0, 1, 1e9);
  bool failed = false;
  for (int i = 0; i < 1000 && !failed; ++i)
    for (const auto& ev : e.run_until())
      if (ev.action.get() == c.get() && ev.failed)
        failed = true;
  EXPECT_TRUE(failed);
  EXPECT_DOUBLE_EQ(c->finish_time(), 2.0);
}

TEST_F(EngineTest, CommOnDeadRouteFailsImmediately) {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l = p.add_link("l", 1e8, 0.0);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  e.set_link_state(0, false);
  auto c = e.comm_start(0, 1, 100.0);
  EXPECT_EQ(c->state(), ActionState::kFailed);
  auto events = e.run_until();
  bool found = false;
  for (const auto& ev : events)
    if (ev.action.get() == c.get() && ev.failed)
      found = true;
  EXPECT_TRUE(found);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);  // no time elapsed
}

TEST_F(EngineTest, HostRecoversAfterFailure) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  e.set_host_state(0, false);
  e.run_until();  // drain events
  EXPECT_FALSE(e.host_is_on(0));
  e.set_host_state(0, true);
  EXPECT_TRUE(e.host_is_on(0));
  auto a = e.exec_start(0, 1e9);
  const double finish = run_until_done(e, a);
  EXPECT_DOUBLE_EQ(finish, e.now());
  EXPECT_EQ(a->state(), ActionState::kDone);
}

TEST_F(EngineTest, ParallelTaskCoupledRates) {
  // Two hosts compute 1e9 flops each while exchanging 1e8 bytes over a 1e8 B/s
  // link: the communication is the bottleneck (1s); computation would take 1s
  // alone as well -> both saturate, total 2s (cpu gets 1e9/2s = rate .5e9
  // since progress is limited by min ratio).
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l = p.add_link("l", 1e8, 0.0);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  // progress rate limited by: cpu: 1e9/1e9 = 1/s ; link: 1e8/1e8 = 1/s.
  // combined constraint is independent (different resources): rate = 1 -> 1s.
  auto t = e.ptask_start({0, 1}, {1e9, 1e9}, {{0.0, 1e8}, {0.0, 0.0}});
  EXPECT_NEAR(run_until_done(e, t), 1.0, 1e-9);
}

TEST_F(EngineTest, ParallelTaskSharesCpuWithExec) {
  Platform p;
  p.add_host("a", 1e9);
  p.add_host("b", 1e9);
  Engine e(std::move(p));
  auto pt = e.ptask_start({0, 1}, {1e9, 1e9}, {});
  auto ex = e.exec_start(0, 1e9);
  // On host a: ptask consumes 1e9 * rate, exec consumes rate'. MaxMin splits:
  // ptask rate r with coeff 1e9, exec rate x with coeff 1: growth equalizes
  // consumption shares... both saturate host a: 1e9*r + x = 1e9.
  // Progressive filling: both grow until a saturates; r grows at 1 (weight 1,
  // value in units of progress/s), x at 1 (flop/s)! Units differ wildly, so r
  // saturates a almost alone: delta where 1e9*d + d = 1e9 -> d ~= 1.
  run_until_done(e, pt);
  const double r = pt->finish_time();
  EXPECT_GT(r, 1.0);  // slowed down by the competing exec a bit
  run_until_done(e, ex);
  EXPECT_GT(ex->finish_time(), 1.0);
}

TEST_F(EngineTest, StepBoundStopsEarly) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 1e10);
  auto events = e.run_until(3.0);
  EXPECT_TRUE(events.empty());
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_NEAR(a->remaining(), 7e9, 1.0);
}

TEST_F(EngineTest, NextEventTimeEmptyEngine) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  EXPECT_TRUE(std::isinf(e.next_event_time()));
  auto events = e.run_until();
  EXPECT_TRUE(events.empty());
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

TEST_F(EngineTest, LoadIntrospection) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  EXPECT_DOUBLE_EQ(e.host_load(0), 0.0);
  auto a = e.exec_start(0, 1e10);
  EXPECT_DOUBLE_EQ(e.host_load(0), 1e9);
  (void)a;
}

// ---------------------------------------------------------------------------
// Completion-heap equivalence sweep: the heap-driven run_until() must order
// and date completions exactly like the old exhaustive scan. The reference is an
// independent fluid simulation of weighted max-min sharing on one link
// (rate_i = C * w_i / sum of active weights), driven through the same random
// schedule of starts, suspends, resumes, and priority changes — every such
// event re-rates all flows, exercising heap invalidation en masse.
// ---------------------------------------------------------------------------

namespace heap_sweep {

struct RefFlow {
  double remaining;
  double weight;
  bool suspended = false;
  bool done = false;
  double finish = -1.0;
};

class RefLink {
public:
  explicit RefLink(double capacity) : capacity_(capacity) {}

  int start(double bytes, double weight) {
    flows_.push_back({bytes, weight});
    return static_cast<int>(flows_.size()) - 1;
  }
  // Mutators apply at the model's current date: callers must run_until(t)
  // to the mutation time first.
  void suspend(int i) { flows_[static_cast<size_t>(i)].suspended = true; }
  void resume(int i) { flows_[static_cast<size_t>(i)].suspended = false; }
  void set_weight(int i, double w) { flows_[static_cast<size_t>(i)].weight = w; }

  /// Advance the fluid model to `t`, completing flows on the way.
  void run_until(double t) {
    while (true) {
      const double w_sum = active_weight();
      double next_done = std::numeric_limits<double>::infinity();
      int which = -1;
      if (w_sum > 0) {
        for (size_t i = 0; i < flows_.size(); ++i) {
          const RefFlow& f = flows_[i];
          if (f.done || f.suspended || f.weight <= 0)
            continue;
          const double rate = capacity_ * f.weight / w_sum;
          const double eta = now_ + f.remaining / rate;
          if (eta < next_done) {
            next_done = eta;
            which = static_cast<int>(i);
          }
        }
      }
      if (which < 0 || next_done > t) {
        advance_to(t);
        return;
      }
      advance_to(next_done);
      flows_[static_cast<size_t>(which)].done = true;
      flows_[static_cast<size_t>(which)].finish = next_done;
      flows_[static_cast<size_t>(which)].remaining = 0;
    }
  }

  const RefFlow& flow(int i) const { return flows_[static_cast<size_t>(i)]; }
  size_t flow_count() const { return flows_.size(); }

private:
  double active_weight() const {
    double s = 0;
    for (const RefFlow& f : flows_)
      if (!f.done && !f.suspended)
        s += f.weight;
    return s;
  }
  void advance_to(double t) {
    const double dt = t - now_;
    if (dt > 0) {
      const double w_sum = active_weight();
      if (w_sum > 0)
        for (RefFlow& f : flows_)
          if (!f.done && !f.suspended && f.weight > 0)
            f.remaining = std::max(0.0, f.remaining - capacity_ * f.weight / w_sum * dt);
    }
    now_ = t;
  }

  double capacity_;
  double now_ = 0;
  std::vector<RefFlow> flows_;
};

}  // namespace heap_sweep

TEST_F(EngineTest, HeapMatchesScanUnderRateChurn) {
  using namespace heap_sweep;
  sg::xbt::Rng rng(2024);
  const double kCapacity = 1e8;
  Engine e(sg::platform::make_dumbbell(1e9, kCapacity, 0.0));
  RefLink ref(kCapacity);

  std::vector<ActionPtr> actions;
  std::vector<double> engine_finish;  // filled as completions fire

  auto drain = [&](const StepLog& events) {
    for (const auto& ev : events) {
      EXPECT_EQ(ev.action->state(), ActionState::kDone);
      EXPECT_FALSE(ev.failed);
    }
  };

  // Random schedule: 30 ops at increasing dates, each a start / suspend /
  // resume / priority change. Every op shifts every active flow's rate.
  double t = 0;
  for (int op = 0; op < 30; ++op) {
    t += rng.uniform(0.05, 0.6);
    // Run both models to date t.
    do
      drain(e.run_until(t));
    while (e.now() < t);
    ASSERT_DOUBLE_EQ(e.now(), t);
    ref.run_until(t);

    const double pick = rng.uniform01();
    if (pick < 0.45 || actions.empty()) {
      const double bytes = rng.uniform(1e6, 5e8);
      const double prio = rng.uniform(0.5, 4.0);
      auto a = e.comm_start(0, 1, bytes);
      a->set_priority(prio);
      actions.push_back(a);
      ref.start(bytes, prio);
    } else {
      const int i = static_cast<int>(rng.uniform_int(0, actions.size() - 1));
      if (pick < 0.65) {
        actions[static_cast<size_t>(i)]->suspend();
        if (actions[static_cast<size_t>(i)]->state() == ActionState::kSuspended)
          ref.suspend(i);
      } else if (pick < 0.85) {
        actions[static_cast<size_t>(i)]->resume();
        if (!ref.flow(i).done)
          ref.resume(i);
      } else {
        const double prio = rng.uniform(0.5, 4.0);
        if (actions[static_cast<size_t>(i)]->state() == ActionState::kRunning ||
            actions[static_cast<size_t>(i)]->state() == ActionState::kSuspended) {
          actions[static_cast<size_t>(i)]->set_priority(prio);
          ref.set_weight(i, prio);
        }
      }
    }
  }

  // Resume any still-suspended flows and run both models dry.
  for (size_t i = 0; i < actions.size(); ++i)
    if (actions[i]->state() == ActionState::kSuspended) {
      actions[i]->resume();
      ref.resume(static_cast<int>(i));
    }
  for (int guard = 0; guard < 100000 && e.running_action_count() > 0; ++guard)
    drain(e.run_until());
  ref.run_until(1e9);

  // Every flow completed, at the reference date. The completion *ordering*
  // is implied: identical dates means identical order.
  ASSERT_EQ(actions.size(), ref.flow_count());
  for (size_t i = 0; i < actions.size(); ++i) {
    ASSERT_EQ(actions[i]->state(), ActionState::kDone) << "flow " << i;
    ASSERT_TRUE(ref.flow(static_cast<int>(i)).done) << "flow " << i;
    EXPECT_NEAR(actions[i]->finish_time(), ref.flow(static_cast<int>(i)).finish,
                1e-6 * std::max(1.0, ref.flow(static_cast<int>(i)).finish))
        << "flow " << i;
  }
}

TEST_F(EngineTest, HeapCompletionsAreChronological) {
  // Many independent execs with random sizes completing in bursts: events
  // must fire in non-decreasing time order and at their own finish dates.
  sg::xbt::Rng rng(7);
  Platform p;
  for (int i = 0; i < 64; ++i)
    p.add_host(sg::xbt::format("h%d", i), 1e9);
  Engine e(std::move(p));
  std::vector<ActionPtr> actions;
  for (int i = 0; i < 256; ++i)
    actions.push_back(e.exec_start(i % 64, rng.uniform(1e7, 1e10)));

  double last = 0;
  size_t fired = 0;
  for (int guard = 0; guard < 100000 && fired < actions.size(); ++guard) {
    for (const auto& ev : e.run_until()) {
      EXPECT_GE(e.now(), last);
      last = e.now();
      EXPECT_DOUBLE_EQ(ev.action->finish_time(), e.now());
      ++fired;
    }
  }
  EXPECT_EQ(fired, actions.size());
  EXPECT_EQ(e.running_action_count(), 0u);
}

TEST_F(EngineTest, ZeroWorkActionCompletesOnStarvedResource) {
  // A 0-flop exec on a host whose availability is currently 0 must still
  // complete immediately: its solver allocation never changes (0 -> 0), so
  // the completion has to be scheduled at creation, not via a rate refresh.
  Platform p;
  sg::platform::HostSpec spec;
  spec.name = "h";
  spec.speed_flops = 1e9;
  spec.availability = sg::trace::Trace("a", {{0.0, 0.0}}, -1.0);  // starved
  p.add_host(spec);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 0.0);
  EXPECT_DOUBLE_EQ(run_until_done(e, a), 0.0);
  EXPECT_EQ(a->state(), ActionState::kDone);
}

TEST_F(EngineTest, CanceledActionsAreNotPinnedByStaleHeapEntries) {
  // Cancelling actions whose completion dates lie far in the future leaves
  // stale heap entries buried under the top; compaction must release them
  // (and the actions they hold) without waiting for simulated time to reach
  // those dates.
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  std::vector<std::weak_ptr<Action>> ghosts;
  {
    std::vector<ActionPtr> sleeps;
    for (int i = 0; i < 20; ++i)
      sleeps.push_back(e.sleep_start(0, 1e9));
    for (auto& s : sleeps) {
      s->cancel();
      ghosts.push_back(s);
    }
  }
  e.run_until();  // deliver the cancellation events...
  e.run_until();  // ...and expire that log (it held the last strong refs)
  // Any new scheduling triggers the stale-dominated compaction.
  auto trigger = e.sleep_start(0, 1.0);
  (void)trigger;
  int expired = 0;
  for (const auto& g : ghosts)
    expired += g.expired();
  EXPECT_EQ(expired, 20);
}

TEST_F(EngineTest, ReentrantObserverCancelDoesNotDoubleFinish) {
  // A host failure collects its victims up front; an observer that reacts to
  // the first failure by cancelling a sibling must not make the engine
  // finish that sibling twice (regression: stale run_idx_ reuse corrupted
  // the running set).
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 1e12, 1.0, "a");
  auto b = e.exec_start(0, 1e12, 1.0, "b");
  auto c = e.exec_start(0, 1e12, 1.0, "c");
  e.set_action_observer([&](const Action& act, ActionState, ActionState ns) {
    if (ns == ActionState::kFailed && act.name() == "a")
      b->cancel();  // re-enters finish_action while b is a pending victim
  });
  e.set_host_state(0, false);
  auto events = e.run_until();  // drain pending failure events
  EXPECT_EQ(a->state(), ActionState::kFailed);
  EXPECT_EQ(b->state(), ActionState::kCanceled);
  EXPECT_EQ(c->state(), ActionState::kFailed);
  EXPECT_EQ(e.running_action_count(), 0u);
  // Each action reported exactly once.
  int seen_a = 0, seen_b = 0, seen_c = 0;
  for (const auto& ev : events) {
    seen_a += ev.action.get() == a.get();
    seen_b += ev.action.get() == b.get();
    seen_c += ev.action.get() == c.get();
  }
  EXPECT_EQ(seen_a, 1);
  EXPECT_EQ(seen_b, 1);
  EXPECT_EQ(seen_c, 1);
}

// ---------------------------------------------------------------------------
// Failure propagation through the arena index: victims are found via the
// solver's element lists (cnst -> vars -> actions) and the per-host sleep
// index, never by scanning the running set. These tests pin the delivery
// invariants — most importantly exactly-one-event per failed action.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, PtaskSpanningTwoFailedConstraintsEmitsOneEvent) {
  // A ptask over host 0's CPU and the 0-1 link; host 0 and the link die at
  // the same instant. The action sits on both dead constraints but must
  // emit exactly one failure event.
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l = p.add_link("l", 1e8, 0.0);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  auto pt = e.ptask_start({0, 1}, {1e12, 1e12}, {{0.0, 1e12}, {0.0, 0.0}});
  auto bystander = e.exec_start(1, 1e12);
  e.run_until(0.5);
  e.set_host_state(0, false);
  e.set_link_state(0, false);
  auto events = e.run_until();
  int pt_failures = 0;
  for (const auto& ev : events)
    if (ev.action.get() == pt.get()) {
      EXPECT_TRUE(ev.failed);
      ++pt_failures;
    }
  EXPECT_EQ(pt_failures, 1) << "action spanning two failed constraints double-delivered";
  EXPECT_EQ(pt->state(), ActionState::kFailed);
  EXPECT_EQ(bystander->state(), ActionState::kRunning) << "unaffected action was touched";
  EXPECT_EQ(e.running_action_count(), 1u);
}

TEST_F(EngineTest, DuplicateElementsOnOneConstraintFailOnce) {
  // Symmetric ptask traffic puts the same variable twice on the same link
  // constraint; the link's death must still deliver a single event.
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l = p.add_link("l", 1e8, 0.0);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  auto pt = e.ptask_start({0, 1}, {0.0, 0.0}, {{0.0, 1e12}, {1e12, 0.0}});
  e.run_until(0.25);
  e.set_link_state(0, false);
  auto events = e.run_until();
  int failures = 0;
  for (const auto& ev : events)
    if (ev.action.get() == pt.get() && ev.failed)
      ++failures;
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(pt->state(), ActionState::kFailed);
}

TEST_F(EngineTest, LoopbackCommDiesWithItsHost) {
  Platform p;
  p.add_host("h", 1e9);
  p.add_host("other", 1e9);
  Engine e(std::move(p));
  auto c = e.comm_start(0, 0, 1e12);
  e.run_until(0.1);
  EXPECT_EQ(c->state(), ActionState::kRunning);
  e.set_host_state(0, false);
  auto events = e.run_until();
  int failures = 0;
  for (const auto& ev : events)
    if (ev.action.get() == c.get() && ev.failed)
      ++failures;
  EXPECT_EQ(failures, 1) << "loopback comm must die with its host";
  EXPECT_EQ(c->state(), ActionState::kFailed);

  // Starting a loopback transfer on a dead host fails immediately, like a
  // transfer over a dead route.
  auto dead = e.comm_start(0, 0, 100.0);
  EXPECT_EQ(dead->state(), ActionState::kFailed);

  // After recovery the loopback works again at full speed.
  e.set_host_state(0, true);
  e.run_until();
  auto revived = e.comm_start(0, 0, 1e9);
  for (int guard = 0; guard < 1000 && revived->state() == ActionState::kRunning; ++guard)
    e.run_until();
  EXPECT_EQ(revived->state(), ActionState::kDone);
}

TEST_F(EngineTest, SleepIndexKillsOnlyAffectedHost) {
  Platform p;
  p.add_host("a", 1e9);
  p.add_host("b", 1e9);
  Engine e(std::move(p));
  auto s_a1 = e.sleep_start(0, 100.0);
  auto s_b = e.sleep_start(1, 100.0);
  auto s_a2 = e.sleep_start(0, 200.0);
  e.run_until(1.0);
  e.set_host_state(0, false);
  auto events = e.run_until();
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(s_a1->state(), ActionState::kFailed);
  EXPECT_EQ(s_a2->state(), ActionState::kFailed);
  EXPECT_EQ(s_b->state(), ActionState::kRunning);
  // The index stays consistent after the swap-removals: the survivor still
  // completes at its own date.
  EXPECT_DOUBLE_EQ(run_until_done(e, s_b), 100.0);
}

TEST_F(EngineTest, SuspendedActionStillFailsWithItsResource) {
  // A suspended exec keeps its solver variable, so the arena index must
  // still find it when the host dies.
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 1e12);
  e.run_until(0.5);
  a->suspend();
  e.set_host_state(0, false);
  e.run_until();
  EXPECT_EQ(a->state(), ActionState::kFailed);
}

TEST_F(EngineTest, NamedActionOutlivesEngine) {
  // The name side table (and the block the action lives in) are co-owned by
  // the action's control block, so an ActionPtr — named or not — may
  // legally outlive its engine; destroying it afterwards must not touch
  // freed engine memory (regression caught by ASan).
  ActionPtr survivor_named;
  ActionPtr survivor_plain;
  {
    Platform p;
    p.add_host("h", 1e9);
    Engine e(std::move(p));
    survivor_named = e.exec_start(0, 1e9, 1.0, "long-lived");
    survivor_plain = e.exec_start(0, 1e9);
    run_until_done(e, survivor_named);
    run_until_done(e, survivor_plain);
  }
  // name() only needs the co-owned side table, not the engine.
  EXPECT_EQ(survivor_named->name(), "long-lived");
  EXPECT_EQ(survivor_plain->name(), "exec");
  survivor_named.reset();
  survivor_plain.reset();
}

TEST_F(EngineTest, NamedAndDefaultActionNames) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  // The creation notify must already see the custom name.
  std::vector<std::string> observed;
  e.set_action_observer([&](const Action& a, ActionState, ActionState ns) {
    if (ns == ActionState::kRunning)
      observed.push_back(a.name());
  });
  auto plain = e.exec_start(0, 1e9);
  auto named = e.exec_start(0, 1e9, 1.0, "my-job");
  e.comm_start(0, 0, 1e6);
  e.comm_start(0, 0, 1e6, -1.0, "my-comm");
  e.ptask_start({0}, {1e9}, {});
  e.ptask_start({0}, {1e9}, {}, "my-ptask");
  e.sleep_start(0, 1.0);
  e.sleep_start(0, 1.0, "my-sleep");
  // Every kind fires its creation notice, with the name already set.
  EXPECT_EQ(observed, (std::vector<std::string>{"exec", "my-job", "comm", "my-comm", "ptask",
                                                "my-ptask", "sleep", "my-sleep"}));
  e.set_action_observer(nullptr);
  auto explicit_default = e.sleep_start(0, 1.0, "sleep");
  EXPECT_EQ(plain->name(), "exec");
  EXPECT_EQ(named->name(), "my-job");
  EXPECT_EQ(explicit_default->name(), "sleep");
  run_until_done(e, named);
  EXPECT_EQ(named->name(), "my-job") << "name must survive completion";
}

TEST_F(EngineTest, ObserverSeesTransitions) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  int done_count = 0;
  e.set_action_observer([&](const Action&, ActionState, ActionState ns) {
    if (ns == ActionState::kDone)
      ++done_count;
  });
  auto a = e.exec_start(0, 1e9);
  run_until_done(e, a);
  EXPECT_EQ(done_count, 1);
}

}  // namespace
