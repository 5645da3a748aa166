/// actor_swarm — the "millions of simulated processes" demonstration.
///
/// Spawns a swarm of actor pairs across a multi-zone cluster platform: each
/// pair lives on one host and rendezvouses over its own interned mailbox a
/// few times, then both actors exit. This exercises exactly the scale path
/// the fiber runtime is built for — pooled recycled stacks, slot-arena
/// actors, dense mailbox ids, per-shard run queues — and reports the cost:
/// spawn rate, wakeups/s, context switches/s, and peak bytes per actor.
///
/// Usage: actor_swarm [n_actors] [rounds]
///   n_actors  total actors, rounded to a pair multiple (default 20000,
///             overridable with SWARM_ACTORS; the headline run is 1000000)
///   rounds    messages per pair (default 2)
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/kernel.hpp"
#include "platform/platform.hpp"
#include "xbt/settings.hpp"

using sg::kernel::Kernel;
using sg::kernel::MailboxId;

namespace {

/// Current and peak resident set, from /proc (Linux); zeros elsewhere.
struct Rss {
  size_t current = 0;
  size_t peak = 0;
};

Rss read_rss() {
  Rss r;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      size_t kb = 0;
      if (std::sscanf(line, "VmRSS: %zu kB", &kb) == 1)
        r.current = kb * 1024;
      else if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1)
        r.peak = kb * 1024;
    }
    std::fclose(f);
  }
  return r;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  // Swarm tuning: tiny stacks (the bodies below are shallow) and no guard
  // pages — at 1M actors, per-stack mprotect guards would exhaust the
  // default vm.max_map_count VMA budget; slab pooling keeps mappings at
  // one per 256 stacks instead. A --cfg item overrides either.
  sg::kernel::declare_context_config();
  sg::config::set(sg::kernel::kCfgContextStackSize, 64.0 * 1024);
  sg::config::set(sg::kernel::kCfgContextGuardPages, 0);
  sg::config::parse_args(argc, argv);

  long n_actors = 20000;
  if (const char* env = std::getenv("SWARM_ACTORS"))
    n_actors = std::atol(env);
  if (argc > 1)
    n_actors = std::atol(argv[1]);
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 2;
  const long n_pairs = std::max(1L, n_actors / 2);
  n_actors = n_pairs * 2;

  // A few cluster zones so the per-shard run queues actually shard.
  const int zones = n_actors >= 500000 ? 16 : 4;
  const int hosts_per_zone = 64;
  sg::platform::Platform p;
  for (int z = 0; z < zones; ++z) {
    sg::platform::ClusterZoneSpec zone;
    zone.name = "zone" + std::to_string(z);
    zone.host_prefix = "z" + std::to_string(z) + "-";
    zone.count = hosts_per_zone;
    p.add_cluster_zone(zone);
  }
  p.seal();
  const int host_count = static_cast<int>(p.host_count());

  const Rss base = read_rss();
  Kernel kernel(std::move(p));

  const auto t_spawn = std::chrono::steady_clock::now();
  for (long i = 0; i < n_pairs; ++i) {
    const int host = static_cast<int>(i % host_count);
    const MailboxId mbox = kernel.mailbox_by_name("pair:" + std::to_string(i));
    kernel.spawn("rx" + std::to_string(i), host, [&kernel, mbox, rounds] {
      for (int r = 0; r < rounds; ++r)
        kernel.recv(mbox);
    });
    kernel.spawn("tx" + std::to_string(i), host, [&kernel, mbox, rounds] {
      for (int r = 0; r < rounds; ++r)
        kernel.send(mbox, nullptr, 1e3);
    });
  }
  const double spawn_wall = seconds_since(t_spawn);

  const auto t_run = std::chrono::steady_clock::now();
  const double sim_end = kernel.run();
  const double run_wall = seconds_since(t_run);

  const Rss after = read_rss();
  const auto& st = kernel.stats();
  const auto pool = kernel.context_factory().pool_stats();
  const double bytes_per_actor =
      after.peak > base.current ? static_cast<double>(after.peak - base.current) /
                                      static_cast<double>(n_actors)
                                : 0.0;

  std::printf("swarm: %ld actors (%ld pairs x %d rounds) on %d hosts in %d zones [%s backend]\n",
              n_actors, n_pairs, rounds, host_count, zones,
              kernel.context_factory().backend_name());
  std::printf("  spawn:    %.2f s (%.0f actors/s)\n", spawn_wall,
              static_cast<double>(n_actors) / spawn_wall);
  std::printf("  run:      %.2f s simulating %.3f s (%" PRIu64 " wakeups, %.0f wakeups/s)\n",
              run_wall, sim_end, st.wakeups, static_cast<double>(st.wakeups) / run_wall);
  std::printf("  switches: %" PRIu64 " (%.0f/s)\n", st.context_switches,
              static_cast<double>(st.context_switches) / run_wall);
  std::printf("  memory:   peak rss %.1f MiB (%.0f bytes/actor)\n",
              static_cast<double>(after.peak) / (1024.0 * 1024.0), bytes_per_actor);
  std::printf("  stacks:   %zu allocated, %zu free, %zu slabs, %zu B usable each\n",
              pool.stacks_allocated, pool.stacks_free, pool.slabs, pool.stack_bytes);
  return 0;
}
