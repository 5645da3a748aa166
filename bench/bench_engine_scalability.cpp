/// E9 — scalability of the MSG concurrency model ("all simulated application
/// processes run within a single OS process"): wall-clock cost of a
/// master/worker simulation as the number of processes grows. Plus the SURF
/// incremental-churn workload: N independent client/server pairs with one
/// flow changing per event, the access pattern the incremental max-min
/// solver and the completion-date heap are built for. Plus platform seal
/// time, which lazy on-demand routing made O(nodes + edges) instead of
/// O(hosts^2) — the former cap on the churn workload size.
///
/// With --json=PATH the results are also written as a BENCH_engine.json
/// artifact (same shape as google-benchmark JSON: a "benchmarks" array; the
/// tracked metric is "wall_time_s", lower is better) for CI trend tracking
/// and the regression-compare step.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/engine.hpp"
#include "msg/msg.hpp"
#include "platform/builders.hpp"
#include "xbt/str.hpp"

using namespace sg::msg;

namespace {

bench::JsonWriter g_json;

void record(const std::string& name, double wall, const std::string& extra_key = "",
            double extra_value = 0) {
  g_json.record(name, wall, extra_key, extra_value);
}

double run_master_worker(int n_workers, int tasks_per_worker, double* sim_time) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();

  sg::platform::ClusterSpec spec;
  spec.count = n_workers + 1;
  spec.backbone_fatpipe = true;  // scalability run: no artificial backbone contention
  MSG_init(sg::platform::make_cluster(spec));

  const int total = n_workers * tasks_per_worker;
  MSG_process_create("master", [=] {
    for (int t = 0; t < total; ++t) {
      m_task_t task = MSG_task_create("work", 1e8, 1e5);
      MSG_task_put(task, MSG_host_by_index(1 + t % n_workers), 0);
    }
  }, MSG_host_by_index(0));
  for (int w = 1; w <= n_workers; ++w) {
    MSG_process_create("worker" + std::to_string(w), [=] {
      for (int t = 0; t < tasks_per_worker; ++t) {
        m_task_t task = nullptr;
        MSG_task_get(&task, 0);
        MSG_task_execute(task);
        MSG_task_destroy(task);
      }
    }, MSG_host_by_index(w));
  }
  *sim_time = MSG_main();
  MSG_clean();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Engine-level incremental churn: 2N hosts on a fatpipe-backbone cluster,
// one comm flow per client/server pair (client 2i -> server 2i+1 over
// private up/down links; adjacent ids keep each pair's resources on
// neighboring cache lines). Steady state: whenever a flow completes, a new
// one starts on the same pair — exactly one component changes per event.
struct ChurnMemory {
  double bytes_per_action = 0;  ///< slimmed Action + fused control block
  double bytes_per_flow = 0;    ///< solver arena + SoA bytes per live flow
};

double run_engine_churn(int n_pairs, int n_events, double* events_per_sec,
                        ChurnMemory* mem = nullptr) {
  using Clock = std::chrono::steady_clock;
  sg::platform::ClusterSpec spec;
  spec.count = 2 * n_pairs;
  spec.backbone_fatpipe = true;  // a shared backbone would couple all pairs
  sg::core::Engine engine(sg::platform::make_cluster(spec));

  for (int i = 0; i < n_pairs; ++i)
    engine.comm_start(2 * i, 2 * i + 1, 1e6 * (1.0 + i % 7));

  // Warm up to steady state: the initial flows all expire their latency
  // phase in a single step (an O(n) burst by construction), and every pair's
  // first completion resolves its route and solver component. Time only the
  // steady-state regime the workload is about: one completed-and-replaced
  // flow per event.
  int events = 0;
  while (events < n_pairs) {
    const auto fired = engine.run_until();
    for (const auto& ev : fired) {
      ++events;
      const int client = ev.action->host();
      engine.comm_start(client, ev.action->peer_host(), 1e6 * (1.0 + events % 7));
    }
  }

  const auto t0 = Clock::now();
  events = 0;
  while (events < n_events) {
    const auto fired = engine.run_until();
    for (const auto& ev : fired) {
      ++events;
      const int client = ev.action->host();
      engine.comm_start(client, ev.action->peer_host(), 1e6 * (1.0 + events % 7));
    }
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  *events_per_sec = n_events / wall;
  if (mem != nullptr) {
    // sizeof(Action) understates the allocation by the shared_ptr control
    // block that allocate_shared fuses in front of it (2 refcounts + vtable
    // + allocator copy, 32 bytes with libstdc++).
    mem->bytes_per_action = static_cast<double>(sizeof(sg::core::Action) + 32);
    const auto stats = engine.sharing_system().memory_stats();
    if (stats.live_variables > 0)
      mem->bytes_per_flow =
          static_cast<double>(stats.total_bytes()) / static_cast<double>(stats.live_variables);
  }
  return wall;
}

// E9e: sharded churn. N cluster zones (fat-pipe backbones) behind fat-pipe
// WAN links, M client/server pairs per zone, every flow intra-zone. Each
// zone owns a solver shard and its own event heaps, so one completed-and-
// replaced flow touches only its zone's state: per-event cost tracks the
// per-zone load, not the platform size.
// hot_zone_only: churn runs in zone 0 alone while every other zone holds
// `pairs_per_zone` parked (steady, never-completing) flows — the direct
// measurement of "intra-zone per-event cost is independent of platform
// size": the parked zones contribute nothing but their cached heap heads.
double run_sharded_churn(int n_zones, int pairs_per_zone, int n_events, double* events_per_sec,
                         double* solver_bytes_per_shard, bool hot_zone_only = false,
                         double* serial_fraction = nullptr) {
  using Clock = std::chrono::steady_clock;
  sg::platform::Platform p;
  for (int z = 0; z < n_zones; ++z) {
    sg::platform::ClusterZoneSpec spec;
    spec.name = sg::xbt::format("dz%d", z);
    spec.host_prefix = spec.name + "-";  // "dz1" + "10" must not alias "dz11" + "0"
    spec.count = 2 * pairs_per_zone;
    spec.backbone_fatpipe = true;  // a shared backbone would couple all pairs
    p.add_cluster_zone(spec);
  }
  for (int z = 1; z < n_zones; ++z) {
    const auto wan = p.add_link(sg::xbt::format("wan%d", z), 1.25e9, 1e-2,
                                sg::platform::SharingPolicy::kFatpipe);
    p.add_edge(p.zone_gateway(0), p.zone_gateway(z), wan);
  }
  sg::core::Engine engine(std::move(p));

  for (int z = 0; z < n_zones; ++z) {
    const int base = z * 2 * pairs_per_zone;
    const bool parked = hot_zone_only && z > 0;
    for (int i = 0; i < pairs_per_zone; ++i)
      engine.comm_start(base + 2 * i, base + 2 * i + 1,
                        parked ? 1e18 : 1e6 * (1.0 + i % 7));
  }
  // Warm up to steady state (see run_engine_churn). Parked flows never
  // complete, so only the churning pairs produce events either way.
  const int total_pairs = hot_zone_only ? pairs_per_zone : n_zones * pairs_per_zone;
  int events = 0;
  while (events < total_pairs) {
    const auto fired = engine.run_until();
    for (const auto& ev : fired) {
      ++events;
      engine.comm_start(ev.action->host(), ev.action->peer_host(), 1e6 * (1.0 + events % 7));
    }
  }

  const auto t0 = Clock::now();
  events = 0;
  while (events < n_events) {
    const auto fired = engine.run_until();
    for (const auto& ev : fired) {
      ++events;
      engine.comm_start(ev.action->host(), ev.action->peer_host(), 1e6 * (1.0 + events % 7));
    }
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  *events_per_sec = n_events / wall;
  if (serial_fraction != nullptr)
    *serial_fraction = engine.phase_stats().serial_fraction();
  double zone_bytes = 0;
  const auto& sys = engine.sharing_system();
  for (int s = 1; s < sys.shard_count(); ++s)
    zone_bytes += static_cast<double>(sys.shard(s).memory_stats().total_bytes());
  *solver_bytes_per_shard = zone_bytes / n_zones;
  return wall;
}

// Build (but do not seal) the same star cluster make_cluster produces —
// WITHOUT the zone record, so routes resolve through the flat graph-mode
// path (per-source Dijkstra + per-pair cache). This is the baseline the
// cluster-zone fast path is measured against.
sg::platform::Platform build_unsealed_flat_cluster(int n_hosts) {
  using namespace sg::platform;
  Platform p;
  const NodeId sw = p.add_router("node-switch");
  const NodeId out = p.add_router("node-out");
  const LinkId bb = p.add_link("node-backbone", 1.25e9, 5e-4, SharingPolicy::kFatpipe);
  p.add_edge(sw, out, bb);
  for (int i = 0; i < n_hosts; ++i) {
    const std::string name = sg::xbt::format("node%d", i);
    const NodeId h = p.add_host(name, 1e9);
    const LinkId l = p.add_link(name + "-link", 1.25e8, 5e-5);
    p.add_edge(h, sw, l);
  }
  return p;
}

// E9d: hierarchical cluster-zone routing at scale. Builds an n-host cluster
// zone, seals it, and resolves `n_routes` random member pairs: every
// resolution is an O(1) composition over the interned up/down segments —
// no Dijkstra, no per-pair cache — so routing state stays O(hosts) no
// matter how many pairs the workload touches.
void run_zone_routing(int n_hosts, int n_routes, double* seal_s, double* resolve_s,
                      double* bytes_per_host) {
  using Clock = std::chrono::steady_clock;
  sg::platform::ClusterZoneSpec spec;
  spec.name = "node";
  spec.count = n_hosts;
  spec.backbone_fatpipe = true;
  sg::platform::Platform p;
  p.add_cluster_zone(spec);
  const auto t0 = Clock::now();
  p.seal();
  const auto t1 = Clock::now();
  // Cheap deterministic pair sequence (LCG): rng call overhead would drown
  // the ~10 ns composition we are measuring.
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  double lat_sum = 0;
  for (int i = 0; i < n_routes; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const int s = static_cast<int>((x >> 33) % static_cast<std::uint64_t>(n_hosts));
    const int d = static_cast<int>((x >> 13) % static_cast<std::uint64_t>(n_hosts));
    if (s == d)
      continue;
    lat_sum += p.route(s, d).latency();  // consume so the call cannot be elided
  }
  const auto t2 = Clock::now();
  if (lat_sum < 0)
    std::printf("impossible\n");
  *seal_s = std::chrono::duration<double>(t1 - t0).count();
  *resolve_s = std::chrono::duration<double>(t2 - t1).count();
  *bytes_per_host = static_cast<double>(p.routing_memory().total()) / n_hosts;
}

// Flat-graph baseline for the same workload shape: resolve n_src * n_dst
// distinct pairs on an (un-zoned) star cluster. Every pair costs a cache
// entry and an interned path; every source costs a Dijkstra + an O(nodes)
// memoized SSSP tree. This is the representation the zone layer replaces —
// at 100k hosts it cannot complete at all in reasonable memory.
void run_flat_routing(int n_hosts, int n_src, int n_dst, double* resolve_s, double* total_bytes) {
  using Clock = std::chrono::steady_clock;
  sg::platform::Platform p = build_unsealed_flat_cluster(n_hosts);
  p.seal();
  const auto t0 = Clock::now();
  double lat_sum = 0;
  for (int s = 0; s < n_src; ++s)
    for (int d = 0; d < n_dst; ++d) {
      const int dst = (s + 1 + d) % n_hosts;
      lat_sum += p.route(s, dst).latency();
    }
  const auto t1 = Clock::now();
  if (lat_sum < 0)
    std::printf("impossible\n");
  *resolve_s = std::chrono::duration<double>(t1 - t0).count();
  *total_bytes = static_cast<double>(p.routing_memory().total());
}

// Seal an n-host graph platform and resolve a first batch of routes. seal()
// used to run all-pairs Dijkstra (O(hosts^2), ~48 s at 8000 hosts); it is
// now O(nodes + edges), with routes resolved lazily on first use.
void run_seal(int n_hosts, double* seal_s, double* first_routes_s) {
  using Clock = std::chrono::steady_clock;
  sg::platform::Platform p = build_unsealed_flat_cluster(n_hosts);
  const auto t0 = Clock::now();
  p.seal();
  const auto t1 = Clock::now();
  const int batch = n_hosts / 2;
  for (int i = 0; i < batch; ++i)
    (void)p.route(i, batch + i);
  const auto t2 = Clock::now();
  *seal_s = std::chrono::duration<double>(t1 - t0).count();
  *first_routes_s = std::chrono::duration<double>(t2 - t1).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = argv[i] + 7;

  std::printf("E9c: platform seal time — graph cluster, lazy on-demand routing\n\n");
  std::printf("%10s %15s %22s\n", "hosts", "seal (s)", "first n/2 routes (s)");
  for (int hosts : {1000, 4000, 8000}) {
    double seal_s = 0, routes_s = 0;
    run_seal(hosts, &seal_s, &routes_s);
    std::printf("%10d %15.4f %22.4f\n", hosts, seal_s, routes_s);
    record(sg::xbt::format("seal/hosts:%d", hosts), seal_s, "first_routes_s", routes_s);
  }
  std::printf("\nshape: seal() is O(nodes + edges); Dijkstra runs per-source on first\n");
  std::printf("use and each resolved pair is memoized (it used to be all-pairs, ~48 s\n");
  std::printf("at 8000 hosts).\n\n");

  std::printf("E9d: hierarchical cluster-zone routing — O(1) composition, O(hosts) state\n\n");
  std::printf("%10s %12s %15s %15s %18s\n", "hosts", "seal (s)", "1M routes (s)", "ns/route",
              "routing B/host");
  for (int hosts : {8000, 32000, 100000}) {
    const int n_routes = 1000000;
    double seal_s = 0, resolve_s = 0, bph = 0;
    run_zone_routing(hosts, n_routes, &seal_s, &resolve_s, &bph);
    std::printf("%10d %12.4f %15.3f %15.1f %18.0f\n", hosts, seal_s, resolve_s,
                resolve_s * 1e9 / n_routes, bph);
    record(sg::xbt::format("zone_routing/resolve_1M/hosts:%d", hosts), resolve_s, "ns_per_route",
           resolve_s * 1e9 / n_routes);
    g_json.record_bytes(sg::xbt::format("zone_routing/routing_bytes_per_host/hosts:%d", hosts), bph);
  }
  {
    // Flat-graph baseline at 8000 hosts: 500 sources x 500 destinations.
    // Every pair is a cache entry + an interned path, every source an
    // O(nodes) SSSP tree; the zone build answers the same queries from
    // O(hosts) state.
    const int hosts = 8000, n_src = 500, n_dst = 500;
    double flat_s = 0, flat_bytes = 0;
    run_flat_routing(hosts, n_src, n_dst, &flat_s, &flat_bytes);
    double zone_seal = 0, zone_s = 0, zone_bph = 0;
    run_zone_routing(hosts, n_src * n_dst, &zone_seal, &zone_s, &zone_bph);
    const double zone_bytes = zone_bph * hosts;
    std::printf("\nflat vs zone at %d hosts, %d resolved pairs:\n", hosts, n_src * n_dst);
    std::printf("  flat graph: %7.3f s, %10.0f KB routing state\n", flat_s, flat_bytes / 1024);
    std::printf("  zone rule:  %7.3f s, %10.0f KB routing state (%.0fx less memory)\n", zone_s,
                zone_bytes / 1024, flat_bytes / zone_bytes);
    g_json.record_bytes("zone_routing/flat_bytes_8000h_250kpairs", flat_bytes);
    g_json.record_bytes("zone_routing/zone_bytes_8000h_250kpairs", zone_bytes);
  }
  std::printf("\nshape: a cluster member's route is composed from interned up/down\n");
  std::printf("segments in a few array reads; routing bytes per host stay flat from\n");
  std::printf("8k to 100k hosts, a scale the flat per-pair representation cannot reach.\n\n");

  std::printf("E9a: SURF incremental churn — client/server pairs, 1 flow per event\n");
  std::printf("(per-event cost is the metric the SoA completion-heap split moves:\n");
  std::printf("sift compares walk a dense array of dates instead of 32-byte entries)\n\n");
  std::printf("%10s %12s %15s %18s %12s\n", "pairs", "events", "wall time (s)", "events/s",
              "us/event");
  ChurnMemory mem;
  for (int pairs : {100, 500, 1000, 2000, 4000, 8000}) {
    const int n_events = 10000;
    // Best of 5: the absolute times are milliseconds on a shared CI runner,
    // so scheduler blips would otherwise dominate the tracked metric.
    double wall = 1e30, eps = 0;
    for (int rep = 0; rep < 5; ++rep) {
      double rep_eps = 0;
      const double rep_wall = run_engine_churn(pairs, n_events, &rep_eps, pairs == 8000 ? &mem : nullptr);
      if (rep_wall < wall) {
        wall = rep_wall;
        eps = rep_eps;
      }
    }
    std::printf("%10d %12d %15.3f %18.0f %12.3f\n", pairs, n_events, wall, eps, 1e6 / eps);
    record(sg::xbt::format("churn/pairs:%d", pairs), wall, "events_per_sec", eps);
  }
  std::printf("\nsteady-state footprint at 8000 pairs: %.0f bytes/action (object + fused\n",
              mem.bytes_per_action);
  std::printf("control block), %.0f solver bytes/flow (element arena + SoA arrays).\n",
              mem.bytes_per_flow);
  g_json.record_bytes("mem/action_bytes", mem.bytes_per_action);
  g_json.record_bytes("mem/solver_bytes_per_flow", mem.bytes_per_flow);
  std::printf("\nshape: the incremental solver re-solves only the component the completed\n");
  std::printf("flow touches, and the completion-date heap replaces the per-event scan of\n");
  std::printf("all running actions, so per-event cost is O(affected + log n) and stays\n");
  std::printf("flat as the number of concurrent pairs grows.\n\n");

  std::printf("E9e: sharded churn — per-zone MaxMin shards + event heaps\n\n");
  std::printf("constant total load (2000 pairs split across zones):\n");
  std::printf("%8s %12s %12s %18s %12s %16s\n", "zones", "pairs/zone", "events", "events/s",
              "us/event", "solver B/shard");
  for (int zones : {1, 4, 16}) {
    const int pairs_per_zone = 2000 / zones;
    const int n_events = 10000;
    double wall = 1e30, eps = 0, bps = 0;
    for (int rep = 0; rep < 5; ++rep) {
      double rep_eps = 0, rep_bps = 0;
      const double rep_wall = run_sharded_churn(zones, pairs_per_zone, n_events, &rep_eps, &rep_bps);
      if (rep_wall < wall) {
        wall = rep_wall;
        eps = rep_eps;
        bps = rep_bps;
      }
    }
    std::printf("%8d %12d %12d %18.0f %12.3f %16.0f\n", zones, pairs_per_zone, n_events, eps,
                1e6 / eps, bps);
    g_json.record(sg::xbt::format("sharded_churn/zones:%d/pairs_per_zone:%d", zones, pairs_per_zone),
                  wall, {{"events_per_sec", eps}, {"us_per_event", 1e6 / eps}});
    g_json.record_bytes(sg::xbt::format("mem/solver_bytes_per_shard/zones:%d", zones), bps);
  }
  std::printf("\nhot-zone locality (2000 churn pairs in zone 0; every other zone holds\n");
  std::printf("2000 parked flows — intra-zone per-event cost must not see them):\n");
  std::printf("%8s %12s %12s %18s %12s %10s\n", "zones", "total pairs", "events", "events/s",
              "us/event", "vs 1 zone");
  double single_zone_us = 0;
  for (int zones : {1, 4, 16}) {
    const int pairs_per_zone = 2000;
    const int n_events = 10000;
    double wall = 1e30, eps = 0;
    for (int rep = 0; rep < 5; ++rep) {
      double rep_eps = 0, rep_bps = 0;
      const double rep_wall = run_sharded_churn(zones, pairs_per_zone, n_events, &rep_eps, &rep_bps,
                                                /*hot_zone_only=*/true);
      if (rep_wall < wall) {
        wall = rep_wall;
        eps = rep_eps;
      }
    }
    if (zones == 1)
      single_zone_us = 1e6 / eps;
    std::printf("%8d %12d %12d %18.0f %12.3f %10.2f\n", zones, zones * pairs_per_zone, n_events,
                eps, 1e6 / eps, (1e6 / eps) / single_zone_us);
    g_json.record(sg::xbt::format("sharded_hotzone/zones:%d/pairs_per_zone:%d", zones, pairs_per_zone),
                  wall, {{"events_per_sec", eps},
                         {"us_per_event", 1e6 / eps},
                         {"us_per_event_vs_1zone", (1e6 / eps) / single_zone_us}});
  }
  std::printf("\naggregate scale-out (2000 churning pairs in EVERY zone — all shards hot;\n");
  std::printf("the residual growth is LLC capacity over the full working set):\n");
  std::printf("%8s %12s %12s %18s %12s\n", "zones", "total pairs", "events", "events/s", "us/event");
  for (int zones : {4, 16}) {
    const int pairs_per_zone = 2000;
    const int n_events = 10000;
    double wall = 1e30, eps = 0;
    for (int rep = 0; rep < 3; ++rep) {
      double rep_eps = 0, rep_bps = 0;
      const double rep_wall = run_sharded_churn(zones, pairs_per_zone, n_events, &rep_eps, &rep_bps);
      if (rep_wall < wall) {
        wall = rep_wall;
        eps = rep_eps;
      }
    }
    std::printf("%8d %12d %12d %18.0f %12.3f\n", zones, zones * pairs_per_zone, n_events, eps,
                1e6 / eps);
    g_json.record(sg::xbt::format("sharded_scaleout/zones:%d/pairs_per_zone:%d", zones, pairs_per_zone),
                  wall, {{"events_per_sec", eps}, {"us_per_event", 1e6 / eps}});
  }
  std::printf("\nshape: a churn event re-solves one zone shard and walks that zone's own\n");
  std::printf("completion heap; other zones' solver and heap state is never read (their\n");
  std::printf("only per-event trace is a cached head date), so a 16x bigger platform\n");
  std::printf("leaves the hot zone's per-event cost unchanged.\n\n");

  std::printf("E9f: parallel per-shard stepping — engine/threads over the all-zones-hot\n");
  std::printf("workload (16 zones x 2000 churning pairs, every shard advancing every\n");
  std::printf("step; the shard phases of run_until() fan out across worker lanes):\n");
  std::printf("%8s %12s %12s %18s %12s %10s %10s %10s\n", "threads", "total pairs", "events",
              "events/s", "us/event", "vs 1 thr", "par eff", "serial fr");
  {
    sg::core::declare_engine_config();
    // The phase profiler rides along: serial_fraction is the profiler-measured
    // share of run_until() wall time spent OUTSIDE the instrumented fan-outs
    // (target pick, deferred epilogue, gather) — the Amdahl residue the
    // parallel phases cannot touch. Informational only: the gated metric
    // stays events_per_sec.
    sg::config::set(sg::core::kCfgProfile, true);
    const int zones = 16, pairs_per_zone = 2000, n_events = 10000;
    double one_thread_eps = 0;
    for (int threads : {1, 2, 4, 8}) {
      sg::config::set(sg::core::kCfgThreads, threads);
      double wall = 1e30, eps = 0, sf = 0;
      for (int rep = 0; rep < 3; ++rep) {
        double rep_eps = 0, rep_bps = 0, rep_sf = 0;
        const double rep_wall = run_sharded_churn(zones, pairs_per_zone, n_events, &rep_eps,
                                                  &rep_bps, /*hot_zone_only=*/false, &rep_sf);
        if (rep_wall < wall) {
          wall = rep_wall;
          eps = rep_eps;
          sf = rep_sf;
        }
      }
      if (threads == 1)
        one_thread_eps = eps;
      const double speedup = eps / one_thread_eps;
      std::printf("%8d %12d %12d %18.0f %12.3f %10.2f %10.2f %10.3f\n", threads,
                  zones * pairs_per_zone, n_events, eps, 1e6 / eps, speedup, speedup / threads, sf);
      g_json.record_rate(sg::xbt::format("thread_scaling/all_zones_hot/threads:%d", threads), eps,
                         {{"speedup_vs_1_thread", speedup},
                          {"parallel_efficiency", speedup / threads},
                          {"serial_fraction", sf}});
    }
    sg::config::set(sg::core::kCfgThreads, 1);  // later sections measure the serial engine
    sg::config::set(sg::core::kCfgProfile, false);
  }
  std::printf("\nshape: the shard advance/solve phases are embarrassingly parallel; the\n");
  std::printf("serial residue is the target reduction and the deterministic gather, so\n");
  std::printf("events/s grows near-linearly until the backbone-coupling joins and the\n");
  std::printf("gather dominate. (On a 1-core runner all rows collapse to the serial rate.)\n\n");

  std::printf("E9: kernel scalability — master/worker, 8 tasks per worker\n\n");
  std::printf("%10s %12s %15s %18s\n", "processes", "sim time(s)", "wall time (s)",
              "wall us/task");
  for (int workers : {10, 50, 100, 500, 1000, 2000}) {
    double sim = 0;
    const double wall = run_master_worker(workers, 8, &sim);
    std::printf("%10d %12.2f %15.3f %18.1f\n", workers + 1, sim, wall,
                wall * 1e6 / (workers * 8));
    record(sg::xbt::format("master_worker/procs:%d", workers + 1), wall, "sim_time_s", sim);
  }
  std::printf("\nshape: wall time grows near-linearly in the number of simulated events;\n");
  std::printf("thousands of processes fit in one OS process (the paper's MSG design point)\n");

  if (!json_path.empty())
    g_json.write(json_path);
  return 0;
}
