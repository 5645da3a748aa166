/// E1 — the paper's validation figure: per-flow transfer rates for 10 random
/// flows on a BRITE-generated topology, compared across NS2-like and
/// GTNetS-like packet-level simulation and the SimGrid fluid model.
/// Paper claim: fluid rates within +/-15% of packet level, most within a few
/// percent; simulation orders of magnitude faster (see bench_simulation_speed).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "pkt/pkt.hpp"

namespace {

std::vector<double> fluid_rates(const bench::ValidationScenario& sc, double bytes) {
  sg::platform::Platform copy = sc.platform;
  sg::core::Engine engine(std::move(copy));
  std::vector<sg::core::ActionPtr> comms;
  comms.reserve(sc.flows.size());
  for (const auto& f : sc.flows)
    comms.push_back(engine.comm_start(f.src, f.dst, bytes));
  while (engine.running_action_count() > 0)
    engine.run_until();
  std::vector<double> rates;
  rates.reserve(comms.size());
  for (const auto& c : comms)
    rates.push_back(bytes / c->finish_time());
  return rates;
}

std::vector<double> packet_rates(const bench::ValidationScenario& sc, double bytes,
                                 const sg::pkt::TcpParams& params) {
  sg::pkt::PacketNet net(sc.platform, params);
  for (const auto& f : sc.flows)
    net.add_flow({f.src, f.dst, bytes, 0.0});
  net.run();
  std::vector<double> rates;
  for (size_t i = 0; i < sc.flows.size(); ++i)
    rates.push_back(bytes / net.result(static_cast<int>(i)).finish_time);
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  const int n_flows = argc > 1 ? std::atoi(argv[1]) : 10;
  const double bytes = argc > 2 ? std::atof(argv[2]) : 1e8;  // 100 MBytes, as in the paper
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2006;

  sg::core::declare_engine_config();
  auto sc = bench::make_validation_scenario(30, n_flows, seed);

  std::printf("E1: validation experiment (paper's NS2/GTNetS/SimGrid figure)\n");
  std::printf("    Waxman topology, %zu nodes / %zu links, %d flows x %.0f MB\n\n",
              sc.platform.host_count(), sc.platform.link_count(), n_flows, bytes / 1e6);

  const auto ns2 = packet_rates(sc, bytes, sg::pkt::TcpParams::ns2());
  const auto gtnets = packet_rates(sc, bytes, sg::pkt::TcpParams::gtnets());
  const auto fluid = fluid_rates(sc, bytes);

  std::printf("%-8s %14s %14s %14s %10s %10s\n", "Flow ID", "NS2-like", "GTNetS-like",
              "SimGrid", "err-vs-ns2", "err-vs-gt");
  std::printf("%-8s %14s %14s %14s %10s %10s\n", "", "(MB/s)", "(MB/s)", "(MB/s)", "(%)", "(%)");
  int within15 = 0;
  double worst = 0;
  for (int i = 0; i < n_flows; ++i) {
    const double e_ns2 = 100.0 * (fluid[i] - ns2[i]) / ns2[i];
    const double e_gt = 100.0 * (fluid[i] - gtnets[i]) / gtnets[i];
    std::printf("%-8d %14.3f %14.3f %14.3f %+9.1f%% %+9.1f%%\n", i + 1, ns2[i] / 1e6,
                gtnets[i] / 1e6, fluid[i] / 1e6, e_ns2, e_gt);
    const double err = std::max(std::abs(e_ns2), std::abs(e_gt));
    worst = std::max(worst, err);
    if (err <= 15.0)
      ++within15;
  }
  std::printf("\n%d/%d flows within +/-15%% of both packet simulators (worst |err| %.1f%%)\n",
              within15, n_flows, worst);
  std::printf("paper: \"within +/- 15%%, with most within only a few percents\"\n");
  return 0;
}
