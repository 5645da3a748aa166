#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "kernel/context.hpp"
#include "kernel/kernel.hpp"
#include "platform/platform.hpp"
#include "trace/trace.hpp"
#include "xbt/random.hpp"
#include "xbt/settings.hpp"

namespace perfbench {
namespace {

using sg::core::ActionPtr;
using sg::core::Engine;
using sg::platform::ClusterZoneSpec;
using sg::platform::Platform;
using sg::platform::SharingPolicy;

double seconds_since(std::uint64_t t0_ns) { return static_cast<double>(wall_ns() - t0_ns) * 1e-9; }

/// Span name ids, interned once per episode (a handful of string compares).
struct Names {
  std::uint32_t episode, setup, measure, build, seal, engine_construct, kernel_construct, route,
      comm_start, exec_start, run_until, set_host_state, join, leave, rejoin, spawn, kernel_run;
  explicit Names(Recorder& r)
      : episode(r.intern("episode")),
        setup(r.intern("setup")),
        measure(r.intern("measure")),
        build(r.intern("platform.build")),
        seal(r.intern("platform.seal")),
        engine_construct(r.intern("engine.construct")),
        kernel_construct(r.intern("kernel.construct")),
        route(r.intern("platform.route")),
        comm_start(r.intern("engine.comm_start")),
        exec_start(r.intern("engine.exec_start")),
        run_until(r.intern("engine.run_until")),
        set_host_state(r.intern("engine.set_host_state")),
        join(r.intern("membership.join")),
        leave(r.intern("membership.leave")),
        rejoin(r.intern("membership.rejoin")),
        spawn(r.intern("kernel.spawn")),
        kernel_run(r.intern("kernel.run")) {}
};

void configure(const EpisodeConfig& cfg) {
  sg::config::set(sg::core::kCfgThreads, cfg.lanes);
  sg::config::set(sg::core::kCfgProfile, cfg.traced);
  sg::config::set(sg::core::kCfgParallelActors, false);
  sg::config::set(sg::core::kCfgSharding, true);
  // The swarm tuning of examples/actor_swarm.cpp: the bodies are shallow,
  // and per-stack guard pages would exhaust vm.max_map_count at this scale.
  sg::config::set(sg::kernel::kCfgContextBackend, std::string("fiber"));
  sg::config::set(sg::kernel::kCfgContextStackSize, 64.0 * 1024);
  sg::config::set(sg::kernel::kCfgContextGuardPages, 0);
}

ClusterZoneSpec zone_spec(const std::string& name, int count, bool fatpipe_backbone) {
  ClusterZoneSpec z;
  z.name = name;
  z.host_prefix = name + "-";  // "z1" + "10" must not alias "z11" + "0"
  z.count = count;
  z.backbone_fatpipe = fatpipe_backbone;
  return z;
}

/// Star WAN: every zone gateway hangs off one router through a fat pipe.
void add_wan(Platform& p, int zones) {
  const auto hub = p.add_router("wan");
  for (int z = 0; z < zones; ++z) {
    const auto l = p.add_link("wan" + std::to_string(z), 1.25e9, 1e-2, SharingPolicy::kFatpipe);
    p.add_edge(p.zone_gateway(z), hub, l);
  }
}

/// Times Platform::route() for one (src, dst) pair of the workload's own
/// stream, traced episodes only (the engine resolves the same route inside
/// comm_start; this isolates the routing layer's share).
size_t g_route_sink = 0;
void time_route(Recorder& rec, const Names& n, const Platform& p, int src, int dst,
                std::int64_t task) {
  if (!rec.on() || !p.host_present(src) || !p.host_present(dst))
    return;
  Scoped s(rec, n.route, task);
  g_route_sink += p.route(src, dst).size();
}

ActionPtr comm(Recorder& rec, const Names& n, Engine& e, int src, int dst, double bytes,
               std::int64_t task) {
  time_route(rec, n, e.platform(), src, dst, task);
  Scoped s(rec, n.comm_start, task);
  return e.comm_start(src, dst, bytes);
}

ActionPtr exec(Recorder& rec, const Names& n, Engine& e, int host, double flops, std::int64_t task) {
  Scoped s(rec, n.exec_start, task);
  return e.exec_start(host, flops);
}

sg::core::StepLog run_until(Recorder& rec, const Names& n, Engine& e, double deadline) {
  Scoped s(rec, n.run_until);
  return e.run_until(deadline);
}

/// Per-layer values every engine-driven episode reports. `peak_live` is the
/// highest number of concurrently running actions seen.
void read_engine_layers(const Engine& e, double peak_live, std::uint64_t events, Episode& ep) {
  auto& L = ep.layers;
  const auto& sys = e.sharing_system();
  const auto ss = sys.solve_stats();
  const auto ps = e.phase_stats();
  const double rounds = static_cast<double>(ps.rounds);
  const double total = static_cast<double>(ps.total_ns);
  auto share = [total](std::uint64_t ns) { return total > 0 ? static_cast<double>(ns) / total : 0.0; };
  L["maxmin.solves"] = static_cast<double>(ss.solves);
  L["maxmin.full_solves"] = static_cast<double>(ss.full_solves);
  L["maxmin.vars_visited_per_event"] =
      static_cast<double>(ss.vars_visited) / static_cast<double>(std::max<std::uint64_t>(events, 1));
  L["maxmin.group_solves_per_round"] =
      rounds > 0 ? static_cast<double>(sys.group_solve_count()) / rounds : 0.0;
  L["maxmin.bytes_per_flow"] =
      peak_live > 0 ? static_cast<double>(sys.memory_stats().total_bytes()) / peak_live : 0.0;
  L["engine.rounds"] = rounds;
  L["engine.events_per_round"] = rounds > 0 ? static_cast<double>(ps.events) / rounds : 0.0;
  L["engine.solve_share"] = share(ps.solve_ns);
  L["engine.pick_share"] = share(ps.pick_ns);
  L["engine.advance_share"] = share(ps.advance_ns);
  L["engine.epilogue_share"] = share(ps.epilogue_ns);
  double busy_sum = 0.0, busy_max = 0.0;
  for (std::uint64_t b : ps.lane_busy_ns) {
    busy_sum += static_cast<double>(b);
    busy_max = std::max(busy_max, static_cast<double>(b));
  }
  const double lanes = static_cast<double>(e.thread_count());
  L["workers.serial_fraction"] = ps.serial_fraction();
  L["workers.lane_imbalance"] = busy_sum > 0 ? busy_max / (busy_sum / lanes) : 1.0;
  L["workers.barrier_idle_share"] =
      ps.parallel_ns > 0 ? 1.0 - busy_sum / (lanes * static_cast<double>(ps.parallel_ns)) : 0.0;
  L["platform.routing_kb"] = static_cast<double>(e.platform().routing_memory().total()) / 1024.0;
}

std::uint64_t count_bad_ends(const std::vector<std::uint8_t>& ends) {
  return static_cast<std::uint64_t>(
      std::count_if(ends.begin(), ends.end(), [](std::uint8_t n) { return n != 1; }));
}

void finish_rates(Episode& ep) {
  ep.events_per_s = static_cast<double>(ep.out.events) / ep.run_s;
  // Engine-driven workloads: every delivered event resumes exactly one task
  // of the benchmark's task loop, so a wakeup is an event there.
  ep.wakeups_per_s = ep.out.wakeups > 0 ? static_cast<double>(ep.out.wakeups) / ep.run_s
                                        : ep.events_per_s;
}

// ---------------------------------------------------------------------------
// dc_master_worker: the paper's master/worker at grid scale. Each cluster
// zone's master keeps `window` tasks in flight (dispatch comm, exec on the
// worker, result comm); ~1% of dispatches come from a global master in zone
// 0, coupling the zone shards through the backbone.
// ---------------------------------------------------------------------------
struct DcParams {
  int zones, hosts, window, tasks_per_zone;
  double global_share;
};

DcParams dc_params(Size s) {
  return s == Size::kFull ? DcParams{8, 2048, 256, 512, 0.01} : DcParams{2, 64, 8, 24, 0.1};
}

struct DcTask {
  int master = 0;
  int worker = 0;
  double flops = 0.0;
  std::int64_t id = 0;
  int stage = 0;  ///< 0: dispatch comm, 1: exec, 2: result comm
};

Episode run_dc_master_worker(std::uint64_t seed, const EpisodeConfig& cfg, Recorder& rec) {
  const DcParams P = dc_params(cfg.size);
  const int n_tasks = P.zones * P.tasks_per_zone;
  const int global_master = 1;  // second host of zone 0; host 0 is zone 0's master

  // Input generation (outside the timed set-up): tasks grouped by zone.
  sg::xbt::Rng rng(seed);
  std::vector<DcTask> tasks(static_cast<size_t>(n_tasks));
  for (int i = 0; i < n_tasks; ++i) {
    const int z = i / P.tasks_per_zone;
    DcTask& t = tasks[static_cast<size_t>(i)];
    t.id = i;
    t.master = rng.uniform01() < P.global_share ? global_master : z * P.hosts;
    t.worker = z * P.hosts + 2 + static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(P.hosts - 3)));
    t.flops = rng.uniform(5e7, 5e8);
  }

  configure(cfg);
  const Names n(rec);
  Episode ep;
  ep.expected_tasks = static_cast<std::uint64_t>(n_tasks);
  std::vector<std::uint8_t> ends(tasks.size(), 0);
  std::vector<int> next_in_zone(static_cast<size_t>(P.zones));
  std::optional<Engine> engine;
  Scoped episode_span(rec, n.episode);

  auto dispatch = [&](DcTask& t) {
    t.stage = 0;
    comm(rec, n, *engine, t.master, t.worker, 2.5e5, t.id)->user_data = &t;
    ++ep.out.tasks;
  };
  auto launch_next = [&](int z) {
    int& next = next_in_zone[static_cast<size_t>(z)];
    if (next < P.tasks_per_zone)
      dispatch(tasks[static_cast<size_t>(z * P.tasks_per_zone + next++)]);
  };

  const std::uint64_t t_setup = wall_ns();
  {
    Scoped s(rec, n.setup);
    Platform p;
    {
      Scoped b(rec, n.build);
      for (int z = 0; z < P.zones; ++z) {
        ClusterZoneSpec spec = zone_spec("dc" + std::to_string(z), P.hosts, true);
        spec.backbone_bandwidth = 1.25e10;
        p.add_cluster_zone(spec);
      }
      add_wan(p, P.zones);
    }
    {
      Scoped b(rec, n.seal);
      p.seal();
    }
    {
      Scoped b(rec, n.engine_construct);
      engine.emplace(std::move(p));
    }
    for (int z = 0; z < P.zones; ++z)
      for (int j = 0; j < P.window; ++j)
        launch_next(z);
  }
  ep.setup_s = seconds_since(t_setup);
  const double peak_live = static_cast<double>(engine->running_action_count());

  const std::uint64_t t_run = wall_ns();
  {
    Scoped s(rec, n.measure);
    std::uint64_t ended = 0;
    while (ended < tasks.size()) {
      const auto log = run_until(rec, n, *engine, std::numeric_limits<double>::infinity());
      if (log.empty() && engine->running_action_count() == 0)
        break;  // stalled: the outcome check reports the missing ends
      ep.out.events += log.size();
      for (const auto& ev : log) {
        DcTask& t = *static_cast<DcTask*>(ev.action->user_data);
        const int z = static_cast<int>(t.id) / P.tasks_per_zone;
        if (ev.failed) {  // no resource ever fails here: counted, checked, and the task retired
          ++ep.out.failures;
        } else if (t.stage == 0) {
          t.stage = 1;
          exec(rec, n, *engine, t.worker, t.flops, t.id)->user_data = &t;
          continue;
        } else if (t.stage == 1) {
          t.stage = 2;
          comm(rec, n, *engine, t.worker, t.master, 1.6e4, t.id)->user_data = &t;
          continue;
        } else {
          ++ep.out.completions;
        }
        ++ends[static_cast<size_t>(t.id)];
        ++ended;
        launch_next(z);
      }
    }
  }
  ep.run_s = seconds_since(t_run);
  ep.out.clock = engine->now();
  ep.out.bad_ends = count_bad_ends(ends);
  read_engine_layers(*engine, peak_live, ep.out.events, ep);
  finish_rates(ep);
  return ep;
}

// ---------------------------------------------------------------------------
// zones_hot: the all-zones-hot churn shape. Every zone holds `pairs`
// intra-zone pairs, each running `rounds` back-to-back transfers, so every
// shard is due almost every round.
// ---------------------------------------------------------------------------
struct HotParams {
  int zones, pairs, rounds;
};

HotParams hot_params(Size s) { return s == Size::kFull ? HotParams{16, 2000, 4} : HotParams{2, 40, 2}; }

Episode run_zones_hot(std::uint64_t seed, const EpisodeConfig& cfg, Recorder& rec) {
  const HotParams P = hot_params(cfg.size);
  const int n_pairs = P.zones * P.pairs;
  const int n_tasks = n_pairs * P.rounds;

  sg::xbt::Rng rng(seed);
  std::vector<double> bytes(static_cast<size_t>(n_tasks));  // task = pair * rounds + round
  for (double& b : bytes)
    b = 1e6 * static_cast<double>(1 + rng.uniform_int(0, 6));

  configure(cfg);
  const Names n(rec);
  Episode ep;
  ep.expected_tasks = static_cast<std::uint64_t>(n_tasks);
  std::vector<std::uint8_t> ends(bytes.size(), 0);
  std::optional<Engine> engine;
  Scoped episode_span(rec, n.episode);

  // Pair i uses hosts 2i and 2i+1; zones hold 2 * pairs consecutive hosts.
  auto start = [&](std::int64_t task) {
    const int pair = static_cast<int>(task / P.rounds);
    comm(rec, n, *engine, 2 * pair, 2 * pair + 1, bytes[static_cast<size_t>(task)], task)
        ->user_data = reinterpret_cast<void*>(static_cast<std::intptr_t>(task));
    ++ep.out.tasks;
  };

  const std::uint64_t t_setup = wall_ns();
  {
    Scoped s(rec, n.setup);
    Platform p;
    {
      Scoped b(rec, n.build);
      for (int z = 0; z < P.zones; ++z)
        p.add_cluster_zone(zone_spec("hz" + std::to_string(z), 2 * P.pairs, true));
      add_wan(p, P.zones);
    }
    {
      Scoped b(rec, n.seal);
      p.seal();
    }
    {
      Scoped b(rec, n.engine_construct);
      engine.emplace(std::move(p));
    }
    for (int i = 0; i < n_pairs; ++i)
      start(static_cast<std::int64_t>(i) * P.rounds);
  }
  ep.setup_s = seconds_since(t_setup);
  const double peak_live = static_cast<double>(engine->running_action_count());

  const std::uint64_t t_run = wall_ns();
  {
    Scoped s(rec, n.measure);
    std::uint64_t ended = 0;
    while (ended < bytes.size()) {
      const auto log = run_until(rec, n, *engine, std::numeric_limits<double>::infinity());
      if (log.empty() && engine->running_action_count() == 0)
        break;
      ep.out.events += log.size();
      for (const auto& ev : log) {
        const auto task = static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(ev.action->user_data));
        if (ev.failed)
          ++ep.out.failures;
        else
          ++ep.out.completions;
        ++ends[static_cast<size_t>(task)];
        ++ended;
        if ((task + 1) % P.rounds != 0)
          start(task + 1);
      }
    }
  }
  ep.run_s = seconds_since(t_run);
  ep.out.clock = engine->now();
  ep.out.bad_ends = count_bad_ends(ends);
  read_engine_layers(*engine, peak_live, ep.out.events, ep);
  finish_rates(ep);
  return ep;
}

// ---------------------------------------------------------------------------
// actor_swarm: rendezvous pairs of fiber actors over cluster zones, driven
// through the kernel. Kernel- and context-bound: each message is one
// mailbox match, one engine comm and a pair of wakeups.
// ---------------------------------------------------------------------------
struct SwarmParams {
  int zones, hosts, pairs, rounds;
};

SwarmParams swarm_params(Size s) {
  return s == Size::kFull ? SwarmParams{4, 64, 50000, 3} : SwarmParams{2, 16, 100, 2};
}

Episode run_actor_swarm(std::uint64_t seed, const EpisodeConfig& cfg, Recorder& rec) {
  using sg::kernel::Kernel;
  using sg::kernel::MailboxId;
  const SwarmParams P = swarm_params(cfg.size);
  const int n_tasks = P.pairs * P.rounds;  // task = one message

  // Both ends of a pair live on one host (as in bench_actor_scale) and every
  // message has the same size, so a host's transfers complete together and
  // the solver sees one small batch per round instead of one event each.
  sg::xbt::Rng rng(seed);
  std::vector<int> pair_host(static_cast<size_t>(P.pairs));
  for (int& h : pair_host)
    h = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(P.zones * P.hosts - 1)));

  configure(cfg);
  const Names n(rec);
  Episode ep;
  ep.expected_tasks = static_cast<std::uint64_t>(n_tasks);
  std::vector<std::uint8_t> ends(static_cast<size_t>(n_tasks), 0);
  Scoped episode_span(rec, n.episode);

  Platform p;
  const std::uint64_t t_setup = wall_ns();
  std::int32_t setup_span = rec.begin(n.setup, -1);
  {
    Scoped b(rec, n.build);
    for (int z = 0; z < P.zones; ++z)
      p.add_cluster_zone(zone_spec("sz" + std::to_string(z), P.hosts, false));
    add_wan(p, P.zones);
  }
  {
    Scoped b(rec, n.seal);
    p.seal();
  }
  const std::uint64_t rss_before = rss_bytes();
  std::unique_ptr<Kernel> k;
  {
    Scoped b(rec, n.kernel_construct);
    k = std::make_unique<Kernel>(std::move(p));
  }
  // Peak concurrent flows, for the solver's bytes-per-flow (traced only:
  // the observer runs in the engine's serial epilogue).
  std::int64_t live = 0, peak_live = 0;
  if (cfg.traced)
    k->engine().set_action_observer([&](const sg::core::Action&, sg::core::ActionState from,
                                        sg::core::ActionState to) {
      if (from == sg::core::ActionState::kRunning && to == sg::core::ActionState::kRunning)
        peak_live = std::max(peak_live, ++live);
      else if (to != sg::core::ActionState::kRunning && to != sg::core::ActionState::kSuspended)
        --live;
    });
  for (int i = 0; i < P.pairs; ++i) {
    const int host = pair_host[static_cast<size_t>(i)];
    time_route(rec, n, k->engine().platform(), host, host, i);
    const MailboxId mb = k->mailbox_by_name("p" + std::to_string(i));
    Kernel* kp = k.get();
    std::uint8_t* my_ends = &ends[static_cast<size_t>(i * P.rounds)];
    const int rounds = P.rounds;
    {
      Scoped s(rec, n.spawn, i);
      k->spawn("rx", host, [kp, mb, rounds] {
        for (int r = 0; r < rounds; ++r)
          ++*static_cast<std::uint8_t*>(kp->recv(mb));
      });
    }
    {
      Scoped s(rec, n.spawn, i);
      k->spawn("tx", host, [kp, mb, rounds, my_ends] {
        for (int r = 0; r < rounds; ++r)
          kp->send(mb, my_ends + r, 1e3);
      });
    }
    ep.out.tasks += static_cast<std::uint64_t>(P.rounds);
  }
  rec.end(setup_span);
  ep.setup_s = seconds_since(t_setup);

  const std::uint64_t t_run = wall_ns();
  {
    Scoped s(rec, n.measure);
    Scoped r(rec, n.kernel_run);
    ep.out.clock = k->run();
  }
  ep.run_s = seconds_since(t_run);
  const std::uint64_t rss_after = rss_bytes();
  for (std::uint8_t e : ends)
    ep.out.completions += e;
  ep.out.bad_ends = count_bad_ends(ends) + (k->deadlocked() ? 1 : 0);
  const auto st = k->stats();
  ep.out.wakeups = st.wakeups;
  // Each message is exactly one engine comm completing through run_until().
  ep.out.events = ep.out.completions;
  read_engine_layers(k->engine(), static_cast<double>(peak_live), ep.out.events, ep);
  const double actors = static_cast<double>(2 * P.pairs);
  auto& L = ep.layers;
  L["kernel.wakeups"] = static_cast<double>(st.wakeups);
  L["kernel.context_switches"] = static_cast<double>(st.context_switches);
  L["kernel.switches_per_wakeup"] =
      static_cast<double>(st.context_switches) / static_cast<double>(std::max<std::uint64_t>(st.wakeups, 1));
  L["kernel.ns_per_switch"] =
      ep.run_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(st.context_switches, 1));
  L["context.slabs"] = static_cast<double>(k->context_factory().pool_stats().slabs);
  L["context.bytes_per_actor"] =
      rss_after > rss_before ? static_cast<double>(rss_after - rss_before) / actors : 0.0;
  finish_rates(ep);
  return ep;
}

// ---------------------------------------------------------------------------
// churn_faults: steady comm -> exec churn on cluster zones while square-wave
// state traces flap a slice of hosts and links, and a fixed membership schedule
// turns hosts off and on and makes them leave, rejoin and join. A failed
// attempt restarts its task on live hosts.
// ---------------------------------------------------------------------------
struct ChurnParams {
  int zones, hosts, window, tasks;
  double host_flap_share, link_flap_share, period;
};

ChurnParams churn_params(Size s) {
  return s == Size::kFull ? ChurnParams{4, 1024, 512, 80000, 0.03, 0.02, 0.02}
                          : ChurnParams{2, 32, 16, 120, 0.1, 0.1, 0.02};
}

struct ChurnTask {
  std::int64_t id = 0;
  int src = -1, dst = -1;
  int stage = 0;  ///< 0: comm src -> dst, 1: exec on dst
};

Episode run_churn_faults(std::uint64_t seed, const EpisodeConfig& cfg, Recorder& rec) {
  const ChurnParams P = churn_params(cfg.size);
  const int base_hosts = P.zones * P.hosts;

  // Input generation: which hosts and links flap, and with what periods.
  sg::xbt::Rng gen(seed);
  struct Flap {
    int index;
    double up, down;
  };
  std::vector<Flap> host_flaps, link_flaps;
  std::vector<char> flapping(static_cast<size_t>(base_hosts), 0);
  for (int h = 0; h < base_hosts; ++h) {
    if (gen.uniform01() < P.host_flap_share) {
      host_flaps.push_back({h, gen.uniform(0.2, 1.0), gen.uniform(0.05, 0.2)});
      flapping[static_cast<size_t>(h)] = 1;
    } else if (gen.uniform01() < P.link_flap_share) {
      link_flaps.push_back({h, gen.uniform(0.2, 1.0), gen.uniform(0.05, 0.2)});
    }
  }
  // The task loop's draws (hosts, sizes) come from a second stream, consumed
  // in event order — which the engine fixes for a seed.
  sg::xbt::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);

  configure(cfg);
  const Names n(rec);
  Episode ep;
  ep.expected_tasks = static_cast<std::uint64_t>(P.tasks);
  ep.failures_expected = true;
  std::vector<ChurnTask> tasks(static_cast<size_t>(P.tasks));
  std::vector<std::uint8_t> ends(tasks.size(), 0);
  std::vector<std::vector<int>> members(static_cast<size_t>(P.zones));  // zone -> hosts
  std::vector<int> controlled;  // hosts the schedule may switch (no trace of their own)
  std::optional<Engine> engine;
  int launched = 0;
  std::uint64_t failures_delivered = 0;
  Scoped episode_span(rec, n.episode);

  auto live = [&](int h) { return engine->host_present(h) && engine->host_is_on(h); };
  auto pick_live = [&](int zone) {
    const auto& m = members[static_cast<size_t>(zone)];
    for (int tries = 0; tries < 64; ++tries) {
      const int h = m[static_cast<size_t>(rng.uniform_int(0, m.size() - 1))];
      if (live(h))
        return h;
    }
    return m.front();  // a dead pick fails like any other attempt
  };
  auto attempt = [&](ChurnTask& t) {
    const int zs = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(P.zones - 1)));
    const int zd = rng.uniform01() < 0.8
                       ? zs
                       : static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(P.zones - 1)));
    t.src = pick_live(zs);
    t.dst = pick_live(zd);
    t.stage = 0;
    comm(rec, n, *engine, t.src, t.dst, rng.uniform(1e5, 1e6), t.id)->user_data = &t;
  };
  auto launch_next = [&] {
    if (launched < P.tasks) {
      ChurnTask& t = tasks[static_cast<size_t>(launched)];
      t.id = launched++;
      ++ep.out.tasks;
      attempt(t);
    }
  };

  const std::uint64_t t_setup = wall_ns();
  {
    Scoped s(rec, n.setup);
    Platform p;
    {
      Scoped b(rec, n.build);
      for (int z = 0; z < P.zones; ++z)
        p.add_cluster_zone(zone_spec("cz" + std::to_string(z), P.hosts, true));
      add_wan(p, P.zones);
      for (const Flap& f : host_flaps)
        p.host_mutable(f.index).state =
            sg::trace::square_wave("hs" + std::to_string(f.index), 1.0, f.up, 0.0, f.down);
      for (const Flap& f : link_flaps) {
        const auto link = p.link_by_name(p.host(f.index).name + "-link");
        p.link_mutable(*link).state =
            sg::trace::square_wave("ls" + std::to_string(f.index), 1.0, f.up, 0.0, f.down);
      }
    }
    {
      Scoped b(rec, n.seal);
      p.seal();
    }
    {
      Scoped b(rec, n.engine_construct);
      engine.emplace(std::move(p));
    }
    for (int h = 0; h < base_hosts; ++h) {
      members[static_cast<size_t>(h / P.hosts)].push_back(h);
      if (!flapping[static_cast<size_t>(h)])
        controlled.push_back(h);
    }
    for (int i = 0; i < P.window; ++i)
      launch_next();
  }
  ep.setup_s = seconds_since(t_setup);
  const double peak_live = static_cast<double>(engine->running_action_count());

  // The fixed membership schedule: one step every `period` simulated seconds,
  // cycling off -> leave + join -> on -> rejoin.
  int step = 0, off_host = -1, left_host = -1;
  auto pick_controlled = [&] {
    for (int tries = 0; tries < 64; ++tries) {
      const int h = controlled[static_cast<size_t>(rng.uniform_int(0, controlled.size() - 1))];
      if (live(h) && h != off_host && h != left_host)
        return h;
    }
    return -1;
  };
  auto schedule_step = [&] {
    switch (step++ % 4) {
      case 0:
        off_host = pick_controlled();
        if (off_host >= 0) {
          Scoped s(rec, n.set_host_state);
          engine->set_host_state(off_host, false);
        }
        break;
      case 1: {
        left_host = pick_controlled();
        if (left_host >= 0) {
          Scoped s(rec, n.leave);
          engine->leave_host(left_host);
        }
        const int zone = (step / 4) % P.zones;
        int joined = -1;
        {
          Scoped s(rec, n.join);
          joined = engine->join_host(zone);
        }
        members[static_cast<size_t>(zone)].push_back(joined);
        controlled.push_back(joined);
        break;
      }
      case 2:
        if (off_host >= 0) {
          Scoped s(rec, n.set_host_state);
          engine->set_host_state(off_host, true);
        }
        off_host = -1;
        break;
      default:
        if (left_host >= 0) {
          Scoped s(rec, n.rejoin);
          engine->rejoin_host(left_host);
        }
        left_host = -1;
        break;
    }
  };

  const std::uint64_t t_run = wall_ns();
  {
    Scoped s(rec, n.measure);
    double next_step = P.period;
    while (ep.out.completions < static_cast<std::uint64_t>(P.tasks)) {
      const auto log = run_until(rec, n, *engine, next_step);
      ep.out.events += log.size();
      for (const auto& ev : log) {
        ChurnTask& t = *static_cast<ChurnTask*>(ev.action->user_data);
        if (ev.failed) {
          ++ep.out.failures;
          ++failures_delivered;
          attempt(t);
        } else if (t.stage == 0) {
          if (!live(t.dst)) {  // the target died while the data was in flight
            ++ep.out.failures;
            attempt(t);
            continue;
          }
          t.stage = 1;
          exec(rec, n, *engine, t.dst, rng.uniform(1e7, 1e8), t.id)->user_data = &t;
        } else {
          ++ep.out.completions;
          ++ends[static_cast<size_t>(t.id)];
          launch_next();
        }
      }
      if (engine->now() >= next_step) {
        schedule_step();
        next_step += P.period;
      }
    }
  }
  ep.run_s = seconds_since(t_run);
  ep.out.clock = engine->now();
  ep.out.bad_ends = count_bad_ends(ends);
  read_engine_layers(*engine, peak_live, ep.out.events, ep);
  ep.layers["engine.failures_delivered"] = static_cast<double>(failures_delivered);
  finish_rates(ep);
  return ep;
}

const Workload kWorkloads[] = {
    {"dc_master_worker", 4, false, run_dc_master_worker},
    {"zones_hot", 4, false, run_zones_hot},
    {"actor_swarm", 1, true, run_actor_swarm},
    {"churn_faults", 1, false, run_churn_faults},
};

std::uint64_t read_status_kb(const char* key) {
  std::uint64_t kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    const size_t len = std::char_traits<char>::length(key);
    while (std::fgets(line, sizeof line, f))
      if (std::char_traits<char>::compare(line, key, len) == 0) {
        kb = std::strtoull(line + len, nullptr, 10);
        break;
      }
    std::fclose(f);
  }
  return kb;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name)
      return &w;
  return nullptr;
}

std::uint64_t rss_bytes() { return read_status_kb("VmRSS:") * 1024; }
std::uint64_t peak_rss_bytes() { return read_status_kb("VmHWM:") * 1024; }

}  // namespace perfbench
