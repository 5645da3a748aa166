/// E2 — the paper's "Simulation time is orders of magnitude faster" claim:
/// wall-clock cost of the validation scenario under the fluid model vs the
/// packet-level simulators, swept over transfer sizes.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "pkt/pkt.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double time_fluid(const bench::ValidationScenario& sc, double bytes) {
  sg::platform::Platform copy = sc.platform;
  const auto t0 = Clock::now();
  sg::core::Engine engine(std::move(copy));
  std::vector<sg::core::ActionPtr> comms;
  for (const auto& f : sc.flows)
    comms.push_back(engine.comm_start(f.src, f.dst, bytes));
  while (engine.running_action_count() > 0)
    engine.run_until();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double time_packet(const bench::ValidationScenario& sc, double bytes, long* events) {
  const auto t0 = Clock::now();
  sg::pkt::PacketNet net(sc.platform, sg::pkt::TcpParams::ns2());
  for (const auto& f : sc.flows)
    net.add_flow({f.src, f.dst, bytes, 0.0});
  net.run();
  *events = net.events_processed();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  sg::core::declare_engine_config();
  auto sc = bench::make_validation_scenario(30, 10, 2006);

  std::printf("E2: simulation cost, fluid (SURF) vs packet level (NS2-like)\n");
  std::printf("    10 flows on the validation topology, size swept\n\n");
  std::printf("%12s %15s %15s %12s %14s\n", "size/flow", "fluid wall (s)", "packet wall (s)",
              "speedup", "pkt events");
  for (double bytes : {1e6, 1e7, 1e8}) {
    const double t_fluid = time_fluid(sc, bytes);
    long events = 0;
    const double t_pkt = time_packet(sc, bytes, &events);
    std::printf("%10.0f MB %15.6f %15.3f %11.0fx %14ld\n", bytes / 1e6, t_fluid, t_pkt,
                t_pkt / std::max(t_fluid, 1e-9), events);
  }
  std::printf("\npaper: \"Simulation time is orders of magnitude faster\"\n");
  return 0;
}
