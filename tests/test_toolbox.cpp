/// Tests for the Grid Application Toolbox (monitoring + discovery on GRAS).
#include <gtest/gtest.h>

#include "config_pin.hpp"
#include "core/engine.hpp"
#include "platform/builders.hpp"
#include "toolbox/toolbox.hpp"
#include "trace/trace.hpp"

namespace {

using namespace sg::toolbox;

class ToolboxTest : public ::testing::Test {
protected:
  sg::test::NetworkPin net_;
};

TEST_F(ToolboxTest, CpuMonitorTracksAvailabilityTrace) {
  // Host availability follows a square wave; the sensor must see both levels.
  sg::platform::Platform p;
  sg::platform::HostSpec spec;
  spec.name = "h";
  spec.speed_flops = 1e9;
  spec.availability = sg::trace::square_wave("w", 1.0, 2.0, 0.25, 2.0);
  p.add_host(spec);
  sg::gras::SimWorld world(std::move(p));
  std::vector<Sample> samples;
  auto* kernel = &world.kernel();
  world.spawn("sensor", "h", [&] {
    cpu_monitor_body(0.5, 10, samples, [kernel] {
      return kernel->engine().host_available_speed_fraction(0);
    });
  });
  world.run();
  ASSERT_EQ(samples.size(), 10u);
  bool saw_hi = false, saw_lo = false;
  for (const auto& s : samples) {
    if (s.value > 0.9)
      saw_hi = true;
    if (s.value < 0.3)
      saw_lo = true;
  }
  EXPECT_TRUE(saw_hi);
  EXPECT_TRUE(saw_lo);
}

TEST_F(ToolboxTest, BandwidthProbeMeasuresLink) {
  // 1 MB/s link; the probe should land in the right decade.
  sg::platform::Platform p;
  auto a = p.add_host("pa", 1e9);
  auto b = p.add_host("pb", 1e9);
  p.add_route(a, b, {p.add_link("l", 1e6, 1e-4)});
  sg::gras::SimWorld world(std::move(p));
  double measured = -1;
  world.spawn("echo", "pb", [] { bandwidth_echo_body(70, 1); });
  world.spawn("probe", "pa", [&] {
    sg::gras::os_sleep(0.1);
    measured = bandwidth_probe("pb", 70, 1e6);
  });
  world.run();
  EXPECT_GT(measured, 0.5e6);
  EXPECT_LT(measured, 1.2e6);
}

TEST_F(ToolboxTest, TopologyDiscoveryAssemblesEdges) {
  sg::platform::ClusterSpec spec;
  spec.count = 4;
  sg::gras::SimWorld world(sg::platform::make_cluster(spec));
  DiscoveredTopology topo;
  world.spawn("collector", "node0", [&] { topo = topology_collect_body(80, 3); });
  // Nodes 1..3 report a ring-ish neighbour view.
  const std::vector<std::vector<std::string>> nbrs = {
      {}, {"node0", "node2"}, {"node1", "node3"}, {"node2", "node0"}};
  for (int i = 1; i <= 3; ++i) {
    world.spawn("reporter" + std::to_string(i), "node" + std::to_string(i), [&, i] {
      sg::gras::os_sleep(0.05 * i);
      topology_report_body("node" + std::to_string(i), nbrs[static_cast<size_t>(i)], "node0", 80);
    });
  }
  world.run();
  EXPECT_EQ(topo.neighbours.size(), 3u);
  const auto edges = topo.edges();
  // Unique undirected edges: 0-1, 1-2, 2-3, 0-3.
  EXPECT_EQ(edges.size(), 4u);
  EXPECT_NE(std::find(edges.begin(), edges.end(), std::make_pair(std::string("node0"), std::string("node1"))),
            edges.end());
}

TEST_F(ToolboxTest, BandwidthProbeRealWorldMode) {
  // The same probe code over real sockets: sanity (positive, finite).
  sg::gras::RealWorld world;
  double measured = -1;
  world.spawn("echo", "he", [] { bandwidth_echo_body(71, 1); });
  world.spawn("probe", "hp", [&] { measured = bandwidth_probe("he", 71, 1e5); });
  world.join_all();
  EXPECT_GT(measured, 0.0);
}

}  // namespace
