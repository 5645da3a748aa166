/// Volunteer-computing overlay on a dynamic platform — the HPDC'06 target
/// deployment where membership, not just availability, is transient. A stable
/// coordinator farms work units out to volunteer hosts; volunteers *depart*
/// (host leaves the platform: residents killed, constraints released) and
/// *return* on availability traces promoted to whole-host membership events by
/// the membership driver, and fresh volunteers are donated after the platform
/// was sealed via runtime join_host.
///
/// Graceful degradation, end to end:
///   * workers are restart-on-rejoin daemons — killed with their host,
///     respawned when it returns;
///   * the coordinator rides vanished peers with bounded-retry-with-backoff
///     (retry_send / retry_recv) instead of dying on the first timeout;
///   * a work unit whose volunteer departs mid-compute is counted lost and
///     the coordinator moves on.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "kernel/membership.hpp"
#include "platform/platform.hpp"
#include "trace/trace.hpp"
#include "xbt/settings.hpp"

using sg::kernel::HostChurn;
using sg::kernel::Kernel;
using sg::kernel::MailboxId;
using sg::kernel::RetryPolicy;

int main(int argc, char** argv) {
  sg::config::parse_args(argc, argv);
  const int n_units = argc > 1 ? std::atoi(argv[1]) : 40;

  // Sealed star cluster: node0 is the stable coordinator, node1..4 are the
  // founding volunteers.
  sg::platform::Platform p;
  sg::platform::ClusterZoneSpec spec;
  spec.name = "overlay";
  spec.host_prefix = "node";
  spec.count = 5;
  spec.host_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-4;
  spec.backbone_bandwidth = 1.25e9;
  spec.backbone_latency = 1e-3;
  spec.backbone_fatpipe = true;
  p.add_cluster_zone(spec);
  p.seal();

  Kernel k(std::move(p));
  const auto zone = *k.engine().platform().zone_by_name("overlay");

  // Three volunteers donated after seal: join_host wires each into the
  // cluster — shard map, route segments, solver constraints — in O(affected).
  std::vector<int> volunteers{1, 2, 3, 4};
  for (int j = 0; j < 3; ++j)
    volunteers.push_back(k.join_host(zone));
  const size_t n_founding = 4;

  // Every volunteer flaps its *membership* on a staggered square wave:
  // 4–7.5 s donated, 1.5 s gone. The driver daemon (on the stable
  // coordinator host) promotes each trace edge to leave_host / rejoin_host.
  std::vector<HostChurn> churn;
  for (size_t i = 0; i < volunteers.size(); ++i) {
    auto wave = sg::trace::square_wave("churn" + std::to_string(volunteers[i]),
                                       /*hi=*/1.0, /*hi_duration=*/4.0 + 0.5 * static_cast<double>(i),
                                       /*lo=*/0.0, /*lo_duration=*/1.5);
    churn.push_back({volunteers[i], std::move(wave)});
  }
  sg::kernel::start_membership_driver(k, /*driver_host=*/0, std::move(churn));

  // Workers: one restart-on-rejoin daemon per volunteer. Dies with its host,
  // respawns when the host rejoins, picks up whatever is queued on its inbox.
  std::vector<int> completed(k.engine().platform().host_count(), 0);
  for (const int h : volunteers) {
    sg::kernel::register_rejoin_daemon(
        k, "worker@" + k.engine().platform().host(h).name, h, [&k, &completed, h] {
          const MailboxId inbox = k.mailbox_by_name("tasks:" + std::to_string(h));
          const MailboxId results = k.mailbox_by_name("results");
          while (true) {
            void* raw = k.recv(inbox);
            const auto unit = reinterpret_cast<std::intptr_t>(raw);
            k.execute(2e8 + 5e7 * static_cast<double>(unit % 3));
            completed[static_cast<size_t>(h)]++;
            k.send(results, raw, 1e4);
          }
        });
  }

  // Coordinator: round-robin dispatch with bounded retry. A volunteer that
  // departed mid-round makes the send time out and back off; one that
  // departed mid-compute loses the unit (counted, not fatal).
  int done = 0, lost = 0;
  k.spawn("coordinator", 0, [&] {
    const MailboxId results = k.mailbox_by_name("results");
    RetryPolicy policy;
    policy.max_attempts = 5;
    policy.timeout = 0.5;
    policy.backoff = 2.0;
    policy.max_timeout = 8.0;
    for (int u = 1; u <= n_units; ++u) {
      const int w = volunteers[static_cast<size_t>(u - 1) % volunteers.size()];
      if (!retry_send(k, k.mailbox_by_name("tasks:" + std::to_string(w)),
                      reinterpret_cast<void*>(static_cast<std::intptr_t>(u)), 1e5, policy)) {
        ++lost;
        continue;
      }
      if (retry_recv(k, results, policy) != nullptr)
        ++done;
      else
        ++lost;
    }
  });

  const double end = k.run();

  std::printf("t=%.3f s: %d/%d work units done, %d lost to churn\n", end, done, n_units, lost);
  for (size_t i = 0; i < volunteers.size(); ++i) {
    const int h = volunteers[i];
    std::printf("  %-8s %s: %d units\n", k.engine().platform().host(h).name.c_str(),
                i < n_founding ? "(founding)   " : "(joined late)",
                completed[static_cast<size_t>(h)]);
  }
  return 0;
}
