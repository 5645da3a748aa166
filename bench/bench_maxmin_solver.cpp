/// E8 — microbenchmark behind the paper's "fast and accurate simulation
/// capabilities" claim: cost of the MaxMin progressive-filling solve as the
/// system grows, and the sharing-policy ablation (shared vs fatpipe).
#include <benchmark/benchmark.h>

#include "core/maxmin.hpp"
#include "xbt/random.hpp"

namespace {

using sg::core::MaxMinSystem;

void build_random_system(MaxMinSystem& sys, int n_vars, int n_cnsts, bool fatpipes,
                         std::uint64_t seed) {
  sg::xbt::Rng rng(seed);
  std::vector<MaxMinSystem::CnstId> cnsts;
  for (int c = 0; c < n_cnsts; ++c)
    cnsts.push_back(sys.new_constraint(rng.uniform(10, 1000), !fatpipes || rng.uniform01() < 0.7));
  for (int v = 0; v < n_vars; ++v) {
    auto var = sys.new_variable(rng.uniform(0.5, 2.0));
    const int uses = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int u = 0; u < uses; ++u)
      sys.expand(cnsts[rng.uniform_int(0, static_cast<std::uint64_t>(n_cnsts - 1))], var,
                 rng.uniform(0.5, 2.0));
  }
}

void BM_SolveShared(benchmark::State& state) {
  MaxMinSystem sys;
  build_random_system(sys, static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 4 + 1,
                      false, 1);
  for (auto _ : state) {
    sys.solve();
    benchmark::DoNotOptimize(sys.value(0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SolveShared)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_SolveWithFatpipes(benchmark::State& state) {
  MaxMinSystem sys;
  build_random_system(sys, static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 4 + 1,
                      true, 2);
  for (auto _ : state) {
    sys.solve();
    benchmark::DoNotOptimize(sys.value(0));
  }
}
BENCHMARK(BM_SolveWithFatpipes)->RangeMultiplier(4)->Range(16, 4096);

void BM_IncrementalChurn(benchmark::State& state) {
  // The engine's actual usage pattern: actions come and go between solves.
  MaxMinSystem sys;
  sg::xbt::Rng rng(3);
  std::vector<MaxMinSystem::CnstId> cnsts;
  for (int c = 0; c < 64; ++c)
    cnsts.push_back(sys.new_constraint(100.0));
  std::vector<MaxMinSystem::VarId> vars;
  for (int v = 0; v < 256; ++v) {
    auto var = sys.new_variable(1.0);
    sys.expand(cnsts[static_cast<size_t>(v) % cnsts.size()], var);
    vars.push_back(var);
  }
  size_t cursor = 0;
  for (auto _ : state) {
    sys.release_variable(vars[cursor]);
    auto var = sys.new_variable(1.0);
    sys.expand(cnsts[cursor % cnsts.size()], var);
    vars[cursor] = var;
    cursor = (cursor + 1) % vars.size();
    sys.solve();
    benchmark::DoNotOptimize(sys.usage(cnsts[0]));
  }
}
BENCHMARK(BM_IncrementalChurn);

// --- the acceptance workload: N independent client/server pairs, one flow
// changed per event. Each flow crosses its pair's client and server link.
// BM_ChurnIncremental re-solves with the incremental path (only the touched
// pair's component); BM_ChurnFullResolve forces the from-scratch solver on
// the identical mutation sequence. The ratio of the two is the speedup that
// turns per-event cost from O(system) into O(affected subgraph).

struct PairedFlows {
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> client_links;
  std::vector<MaxMinSystem::CnstId> server_links;
  std::vector<MaxMinSystem::VarId> flows;
};

PairedFlows build_paired_flows(int n_pairs) {
  PairedFlows p;
  sg::xbt::Rng rng(7);
  for (int i = 0; i < n_pairs; ++i) {
    p.client_links.push_back(p.sys.new_constraint(rng.uniform(50, 150)));
    p.server_links.push_back(p.sys.new_constraint(rng.uniform(50, 150)));
    auto flow = p.sys.new_variable(1.0);
    p.sys.expand(p.client_links.back(), flow);
    p.sys.expand(p.server_links.back(), flow);
    p.flows.push_back(flow);
  }
  p.sys.solve();
  return p;
}

void churn_one_flow(PairedFlows& p, size_t cursor) {
  p.sys.release_variable(p.flows[cursor]);
  auto flow = p.sys.new_variable(1.0);
  p.sys.expand(p.client_links[cursor], flow);
  p.sys.expand(p.server_links[cursor], flow);
  p.flows[cursor] = flow;
}

void BM_ChurnIncremental(benchmark::State& state) {
  auto p = build_paired_flows(static_cast<int>(state.range(0)));
  size_t cursor = 0;
  for (auto _ : state) {
    churn_one_flow(p, cursor);
    cursor = (cursor + 1) % p.flows.size();
    p.sys.solve();
    benchmark::DoNotOptimize(p.sys.value(p.flows[cursor]));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ChurnIncremental)->RangeMultiplier(4)->Range(160, 10240)->Complexity();

void BM_ChurnFullResolve(benchmark::State& state) {
  auto p = build_paired_flows(static_cast<int>(state.range(0)));
  size_t cursor = 0;
  for (auto _ : state) {
    churn_one_flow(p, cursor);
    cursor = (cursor + 1) % p.flows.size();
    p.sys.solve_full();
    benchmark::DoNotOptimize(p.sys.value(p.flows[cursor]));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ChurnFullResolve)->RangeMultiplier(4)->Range(160, 10240)->Complexity();

// --- churn next to a wide backbone: N flows, each crossing its private link
// and one shared backbone fatpipe (the cluster/WAN shape). Each event
// suspends or resumes one flow (set_weight to 0 or back, as the engine does)
// and re-solves; no incidence list changes, so the event is the re-solve
// alone. The fatpipe cap is read from the churned flow's own incidences, so
// the per-event time must be flat in N. (Replacing the flow instead would
// add release_variable's O(N) unlink from the fatpipe's user list.)

void BM_ChurnOnWideFatpipe(benchmark::State& state) {
  MaxMinSystem sys;
  sg::xbt::Rng rng(11);
  const auto backbone = sys.new_constraint(1e6, /*shared=*/false);
  std::vector<MaxMinSystem::VarId> flows;
  for (int i = 0; i < state.range(0); ++i) {
    const auto link = sys.new_constraint(rng.uniform(50, 150));
    flows.push_back(sys.new_variable(1.0));
    sys.expand(link, flows.back());
    sys.expand(backbone, flows.back());
  }
  sys.solve();
  size_t cursor = 0;
  for (auto _ : state) {
    const auto flow = flows[cursor];
    sys.set_weight(flow, sys.weight(flow) > 0 ? 0.0 : 1.0);
    sys.solve();
    benchmark::DoNotOptimize(sys.value(flow));
    cursor = (cursor + 1) % flows.size();
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ChurnOnWideFatpipe)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

}  // namespace

BENCHMARK_MAIN();
