/// Tests for the packet-level TCP simulator, including mini validation runs
/// against the fluid (MaxMin) model — the paper's headline comparison.
#include <gtest/gtest.h>

#include <cmath>

#include "config_pin.hpp"
#include "core/engine.hpp"
#include "pkt/pkt.hpp"
#include "platform/builders.hpp"
#include "topo/brite.hpp"
#include "xbt/exception.hpp"

namespace {

using namespace sg::pkt;
using sg::platform::Platform;

class PktTest : public ::testing::Test {
protected:
  sg::test::NetworkPin net_{1460.0 / 1500.0, 65536.0};
};

TEST_F(PktTest, SingleFlowSaturatesLink) {
  // 10 MB over a 1.25 MB/s link with small latency: goodput approaches
  // bandwidth * 1460/1500 (header overhead).
  Platform p = sg::platform::make_dumbbell(1e9, 1.25e6, 1e-3);
  PacketNet net(p, TcpParams::ns2());
  const int f = net.add_flow({0, 1, 1e7, 0.0});
  net.run();
  const auto& r = net.result(f);
  ASSERT_TRUE(r.finished);
  const double goodput_cap = 1.25e6 * 1460.0 / 1500.0;
  EXPECT_GT(r.throughput, goodput_cap * 0.9);
  EXPECT_LE(r.throughput, goodput_cap * 1.01);
}

TEST_F(PktTest, WindowLimitsLongFatPipe) {
  // 50 ms one-way: RTT ~0.1 s; rwnd 65536 -> rate ~ 655 KB/s even though the
  // link could do 12.5 MB/s.
  Platform p = sg::platform::make_dumbbell(1e9, 1.25e7, 0.05);
  PacketNet net(p, TcpParams::ns2());
  const int f = net.add_flow({0, 1, 5e6, 0.0});
  net.run();
  const auto& r = net.result(f);
  ASSERT_TRUE(r.finished);
  const double window_rate = 65536.0 / 0.1;
  EXPECT_GT(r.throughput, window_rate * 0.75);
  EXPECT_LT(r.throughput, window_rate * 1.15);
}

TEST_F(PktTest, TwoFlowsShareFairlyWithLargeBuffers) {
  // When the bottleneck queue can hold both receive windows, neither flow
  // ever drops: both sit window-limited and share equally.
  TcpParams params = TcpParams::ns2();
  params.queue_limit_packets = 120;  // > 2 * rwnd/mss (2 * 45)
  Platform p = sg::platform::make_dumbbell(1e9, 1.25e6, 2e-3);
  PacketNet net(p, params);
  const int f1 = net.add_flow({0, 1, 5e6, 0.0});
  const int f2 = net.add_flow({0, 1, 5e6, 0.0});
  net.run();
  const auto& r1 = net.result(f1);
  const auto& r2 = net.result(f2);
  ASSERT_TRUE(r1.finished);
  ASSERT_TRUE(r2.finished);
  EXPECT_NEAR(r1.finish_time / r2.finish_time, 1.0, 0.25);
  const double total_time = std::max(r1.finish_time, r2.finish_time);
  const double goodput_cap = 1.25e6 * 1460.0 / 1500.0;
  EXPECT_NEAR(1e7 / total_time, goodput_cap, goodput_cap * 0.15);
}

TEST_F(PktTest, SmallBufferCaptureEffect) {
  // With a queue smaller than the sum of the windows, Reno exhibits the
  // classic capture effect: the established flow keeps a standing queue and
  // never drops, while the other loses repeatedly. The link still stays
  // busy, and both flows do complete.
  TcpParams params = TcpParams::ns2();
  params.queue_limit_packets = 50;
  Platform p = sg::platform::make_dumbbell(1e9, 1.25e6, 2e-3);
  PacketNet net(p, params);
  const int f1 = net.add_flow({0, 1, 5e6, 0.0});
  const int f2 = net.add_flow({0, 1, 5e6, 0.0});
  net.run();
  const auto& r1 = net.result(f1);
  const auto& r2 = net.result(f2);
  ASSERT_TRUE(r1.finished);
  ASSERT_TRUE(r2.finished);
  EXPECT_GT(net.total_drops(), 0);
  // Winner cruises loss-free; loser pays retransmits.
  const auto& winner = r1.finish_time < r2.finish_time ? r1 : r2;
  const auto& loser = r1.finish_time < r2.finish_time ? r2 : r1;
  EXPECT_EQ(winner.retransmits + winner.timeouts, 0);
  EXPECT_GT(loser.retransmits + loser.timeouts, 0);
  // Aggregate utilization remains high despite the unfairness.
  const double goodput_cap = 1.25e6 * 1460.0 / 1500.0;
  EXPECT_NEAR(1e7 / std::max(r1.finish_time, r2.finish_time), goodput_cap, goodput_cap * 0.2);
}

TEST_F(PktTest, CongestionCausesDropsAndRetransmits) {
  // Six aggressive flows through one modest link with a short queue.
  TcpParams params = TcpParams::ns2();
  params.queue_limit_packets = 10;
  Platform p = sg::platform::make_dumbbell(1e9, 1.25e6, 5e-3);
  PacketNet net(p, params);
  for (int i = 0; i < 6; ++i)
    net.add_flow({0, 1, 2e6, 0.0});
  net.run();
  EXPECT_GT(net.total_drops(), 0);
  long retransmits = 0;
  for (size_t i = 0; i < net.flow_count(); ++i)
    retransmits += net.result(static_cast<int>(i)).retransmits + net.result(static_cast<int>(i)).timeouts;
  EXPECT_GT(retransmits, 0);
  for (size_t i = 0; i < net.flow_count(); ++i)
    EXPECT_TRUE(net.result(static_cast<int>(i)).finished) << "flow " << i;
}

TEST_F(PktTest, StaggeredStartRespected) {
  Platform p = sg::platform::make_dumbbell(1e9, 1.25e6, 1e-3);
  PacketNet net(p, TcpParams::ns2());
  const int late = net.add_flow({0, 1, 1e6, 5.0});
  net.run();
  EXPECT_GT(net.result(late).finish_time, 5.0);
}

TEST_F(PktTest, Deterministic) {
  auto run_once = [] {
    Platform p = sg::platform::make_dumbbell(1e9, 1.25e6, 1e-3);
    PacketNet net(p, TcpParams::gtnets());
    net.add_flow({0, 1, 3e6, 0.0});
    net.add_flow({1, 0, 2e6, 0.5});
    net.run();
    return std::make_pair(net.result(0).finish_time, net.result(1).finish_time);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(PktTest, MultiHopRoute) {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto m = p.add_router("m");
  auto b = p.add_host("b", 1e9);
  auto l1 = p.add_link("l1", 1.25e6, 1e-3);
  auto l2 = p.add_link("l2", 2.5e6, 1e-3);
  p.add_edge(a, m, l1);
  p.add_edge(m, b, l2);
  p.seal();
  PacketNet net(p, TcpParams::ns2());
  const int f = net.add_flow({0, 1, 5e6, 0.0});
  net.run();
  const auto& r = net.result(f);
  ASSERT_TRUE(r.finished);
  // Bottleneck is l1.
  EXPECT_LT(r.throughput, 1.25e6);
  EXPECT_GT(r.throughput, 1.25e6 * 0.85);
}

TEST_F(PktTest, PresetsDiffer) {
  auto run_with = [](const TcpParams& params) {
    Platform p = sg::platform::make_dumbbell(1e9, 1.25e6, 1e-2);
    PacketNet net(p, params);
    net.add_flow({0, 1, 1e6, 0.0});
    net.run();
    return net.result(0).finish_time;
  };
  const double t_ns2 = run_with(TcpParams::ns2());
  const double t_gtnets = run_with(TcpParams::gtnets());
  EXPECT_NE(t_ns2, t_gtnets);          // different stacks, different details
  EXPECT_NEAR(t_ns2 / t_gtnets, 1.0, 0.35);  // ...but the same ballpark
}

TEST_F(PktTest, EventCountTracksTraffic) {
  Platform p = sg::platform::make_dumbbell(1e9, 1.25e6, 1e-3);
  PacketNet net(p, TcpParams::ns2());
  net.add_flow({0, 1, 1e6, 0.0});
  net.run();
  // ~685 data packets + acks, each with a couple of events.
  EXPECT_GT(net.events_processed(), 1000);
  EXPECT_GT(net.total_packets_forwarded(), 1000);
}

TEST_F(PktTest, LoopbackRejected) {
  Platform p = sg::platform::make_dumbbell(1e9, 1.25e6, 1e-3);
  PacketNet net(p, TcpParams::ns2());
  EXPECT_THROW(net.add_flow({0, 0, 100.0, 0.0}), sg::xbt::InvalidArgument);
}

// -- fluid-vs-packet agreement (the core of the validation experiment) -----------

double fluid_finish_time(const Platform& p, int src, int dst, double bytes) {
  Platform copy = p;
  sg::core::Engine engine(std::move(copy));
  auto comm = engine.comm_start(src, dst, bytes);
  while (comm->state() == sg::core::ActionState::kRunning)
    engine.run_until();
  return comm->finish_time();
}

TEST_F(PktTest, FluidMatchesPacketSingleLongFlow) {
  Platform p = sg::platform::make_dumbbell(1e9, 1.25e6, 1e-3);
  const double bytes = 2e7;
  PacketNet net(p, TcpParams::ns2());
  net.add_flow({0, 1, bytes, 0.0});
  net.run();
  const double t_pkt = net.result(0).finish_time;
  const double t_fluid = fluid_finish_time(p, 0, 1, bytes);
  EXPECT_NEAR(t_fluid / t_pkt, 1.0, 0.15) << "fluid " << t_fluid << " pkt " << t_pkt;
}

TEST_F(PktTest, FluidMatchesPacketWindowLimited) {
  Platform p = sg::platform::make_dumbbell(1e9, 1.25e7, 0.05);
  const double bytes = 5e6;
  PacketNet net(p, TcpParams::ns2());
  net.add_flow({0, 1, bytes, 0.0});
  net.run();
  const double t_pkt = net.result(0).finish_time;
  const double t_fluid = fluid_finish_time(p, 0, 1, bytes);
  EXPECT_NEAR(t_fluid / t_pkt, 1.0, 0.2) << "fluid " << t_fluid << " pkt " << t_pkt;
}

TEST_F(PktTest, FluidMatchesPacketOnRandomTopology) {
  // Small version of the paper's validation experiment: Waxman topology,
  // 4 long flows, per-flow rate error fluid vs packet within 25%.
  sg::topo::WaxmanSpec spec;
  spec.n_nodes = 12;
  spec.seed = 7;
  spec.bw_min_Bps = 1.25e6;
  spec.bw_max_Bps = 6.25e6;
  Platform p = sg::topo::to_platform(sg::topo::generate_waxman(spec));

  sg::xbt::Rng rng(99);
  struct Pair { int src, dst; };
  std::vector<Pair> pairs;
  while (pairs.size() < 4) {
    int s = static_cast<int>(rng.uniform_int(0, 11));
    int d = static_cast<int>(rng.uniform_int(0, 11));
    if (s != d)
      pairs.push_back({s, d});
  }
  const double bytes = 1e7;

  PacketNet net(p, TcpParams::ns2());
  for (const auto& pair : pairs)
    net.add_flow({pair.src, pair.dst, bytes, 0.0});
  net.run();

  Platform copy = p;
  sg::core::Engine engine(std::move(copy));
  std::vector<sg::core::ActionPtr> comms;
  for (const auto& pair : pairs)
    comms.push_back(engine.comm_start(pair.src, pair.dst, bytes));
  for (int guard = 0; guard < 100000 && engine.running_action_count() > 0; ++guard)
    engine.run_until();

  for (size_t i = 0; i < pairs.size(); ++i) {
    const double rate_pkt = bytes / net.result(static_cast<int>(i)).finish_time;
    const double rate_fluid = bytes / comms[i]->finish_time();
    EXPECT_NEAR(rate_fluid / rate_pkt, 1.0, 0.25)
        << "flow " << i << ": fluid " << rate_fluid << " B/s vs pkt " << rate_pkt << " B/s";
  }
}

}  // namespace
