/// "A peer-to-peer file-sharing application running on volatile Internet
/// hosts" — the paper's last target application. Peers live on hosts whose
/// availability follows failure traces: they exchange chunk announcements
/// and download chunks from each other, surviving churn via timeouts and
/// kernel auto-restart.
///
/// Written directly against the kernel actor API: each peer owns an interned
/// request mailbox plus one data mailbox per chunk; every id is interned once
/// in main() before the churn starts.
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "platform/platform.hpp"
#include "trace/trace.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"
#include "xbt/settings.hpp"

using sg::kernel::Kernel;
using sg::kernel::MailboxId;

namespace {

constexpr int kChunks = 8;
constexpr double kChunkBytes = 2e6;

struct ChunkRequest {
  int chunk;
  int requester;  ///< peer index to ship the chunk back to
};

struct Mailboxes {
  std::vector<MailboxId> request;            ///< per peer: incoming chunk requests
  std::vector<std::vector<MailboxId>> data;  ///< per peer, per chunk: downloads
};

std::vector<std::set<int>> g_have;  // per-peer chunk ownership (shared address space!)

/// Serve chunk requests forever (daemon, restarted with its host).
void seeder(Kernel& k, const Mailboxes& mb, int my_id) {
  while (true) {
    auto* r = static_cast<ChunkRequest*>(k.recv(mb.request[static_cast<size_t>(my_id)]));
    const int chunk = r->chunk;
    const int dest = r->requester;
    delete r;
    if (!g_have[static_cast<size_t>(my_id)].count(chunk))
      continue;  // lost it (restart) — requester will time out and retry
    // unique_ptr until delivery: frees the payload if the send times out OR
    // this seeder is killed mid-transfer by its own host flapping.
    auto payload = std::make_unique<int>(chunk);
    try {
      k.send(mb.data[static_cast<size_t>(dest)][static_cast<size_t>(chunk)], payload.get(),
             kChunkBytes, 30.0);
      payload.release();  // delivered: the leecher owns it now
    } catch (const sg::xbt::Exception&) {
      // requester died before the transfer finished; drop
    }
  }
}

/// Fetch all chunks from whoever has them, retrying across failures.
void leecher(Kernel& k, const Mailboxes& mb, int my_id, int n_peers) {
  sg::xbt::Rng rng(static_cast<unsigned>(my_id) * 77 + 1);
  auto& mine = g_have[static_cast<size_t>(my_id)];
  int attempts = 0;
  while (static_cast<int>(mine.size()) < kChunks && attempts < 400) {
    ++attempts;
    // Pick a missing chunk and a random other peer to ask.
    int want = -1;
    for (int c = 0; c < kChunks; ++c)
      if (!mine.count(c)) {
        want = c;
        break;
      }
    if (want < 0)
      break;
    int peer = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n_peers - 1)));
    if (peer == my_id)
      continue;
    if (!k.engine().host_is_on(peer))
      continue;  // peer is down right now
    auto req = std::make_unique<ChunkRequest>(ChunkRequest{want, my_id});
    try {
      k.send(mb.request[static_cast<size_t>(peer)], req.get(), 1e3, 5.0);
      req.release();  // delivered: the seeder owns it now
      void* raw = k.recv(mb.data[static_cast<size_t>(my_id)][static_cast<size_t>(want)], 30.0);
      std::unique_ptr<int> chunk(static_cast<int*>(raw));
      mine.insert(*chunk);
    } catch (const sg::xbt::Exception&) {
      k.sleep_for(1.0);  // peer churned away; back off and retry
    }
  }
  std::printf("[%8.3f] peer%d: %zu/%d chunks after %d attempts\n", k.now(), my_id, mine.size(),
              kChunks, attempts);
}

}  // namespace

int main(int argc, char** argv) {
  sg::config::parse_args(argc, argv);
  const int n_peers = argc > 1 ? std::atoi(argv[1]) : 6;

  // Internet-ish star with volatile hosts: every peer flaps with its own
  // periodic failure trace (phase-shifted square waves).
  sg::platform::Platform p;
  auto hub = p.add_router("hub");
  for (int i = 0; i < n_peers; ++i) {
    sg::platform::HostSpec spec;
    spec.name = "peer" + std::to_string(i);
    spec.speed_flops = 1e9;
    if (i != 0) {  // peer0 (the initial seeder) stays up
      std::vector<sg::trace::TracePoint> points{{0.0, 1.0},
                                                {20.0 + 7.0 * i, 0.0},
                                                {26.0 + 7.0 * i, 1.0}};
      spec.state = sg::trace::Trace("churn" + std::to_string(i), points, 60.0 + 3.0 * i);
    }
    auto h = p.add_host(spec);
    p.add_edge(h, hub, p.add_link("up" + std::to_string(i), 5e6, 2e-2));
  }
  p.seal();
  Kernel kernel(std::move(p));

  Mailboxes mb;
  mb.request.resize(static_cast<size_t>(n_peers));
  mb.data.resize(static_cast<size_t>(n_peers));
  for (int i = 0; i < n_peers; ++i) {
    mb.request[static_cast<size_t>(i)] = kernel.mailbox_by_name("req:" + std::to_string(i));
    mb.data[static_cast<size_t>(i)].resize(kChunks);
    for (int c = 0; c < kChunks; ++c)
      mb.data[static_cast<size_t>(i)][static_cast<size_t>(c)] =
          kernel.mailbox_by_name("data:" + std::to_string(i) + ":" + std::to_string(c));
  }

  g_have.assign(static_cast<size_t>(n_peers), {});
  for (int c = 0; c < kChunks; ++c)
    g_have[0].insert(c);  // peer0 seeds everything

  for (int i = 0; i < n_peers; ++i) {
    kernel.spawn("seeder" + std::to_string(i), i, [&kernel, &mb, i] { seeder(kernel, mb, i); },
                 /*daemon=*/true, /*auto_restart=*/true);
    if (i != 0)
      kernel.spawn("leecher" + std::to_string(i), i,
                   [&kernel, &mb, i, n_peers] { leecher(kernel, mb, i, n_peers); },
                   /*daemon=*/false, /*auto_restart=*/true);
  }

  const double end = kernel.run();
  int complete = 0;
  for (int i = 0; i < n_peers; ++i)
    complete += static_cast<int>(g_have[static_cast<size_t>(i)].size()) == kChunks;
  std::printf("t=%.3f s: %d/%d peers hold the full file despite churn\n", end, complete, n_peers);
  return 0;
}
