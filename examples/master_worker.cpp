/// Master/worker on a commodity cluster — "a parallel linear system solver
/// on a commodity cluster" is the first target application the paper lists;
/// this is the canonical scheduling skeleton for it: a master scatters
/// compute tasks of uneven size to workers and collects results.
///
/// Written directly against the kernel actor API: each worker owns one
/// interned mailbox for incoming tasks, results flow back through a shared
/// "results" mailbox. Mailbox names are interned once at startup; the
/// per-task loop is entirely id-keyed.
#include <cstdio>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "platform/builders.hpp"
#include "xbt/random.hpp"
#include "xbt/settings.hpp"

using sg::kernel::Kernel;
using sg::kernel::MailboxId;

namespace {

struct Work {
  int id;
  int worker;  ///< which worker processed it (stamped by the worker)
  double flops;
  bool poison = false;
};

void worker(Kernel& k, int my_index, MailboxId my_tasks, MailboxId results) {
  while (true) {
    auto* work = static_cast<Work*>(k.recv(my_tasks));
    if (work->poison) {
      delete work;
      return;
    }
    k.execute(work->flops);
    work->worker = my_index;
    k.send(results, work, 1e4);
  }
}

void master(Kernel& k, int n_tasks, int n_workers, const std::vector<MailboxId>& task_mbox,
            MailboxId results) {
  sg::xbt::Rng rng(7);
  // Dispatch: send each task to the next idle worker (greedy self-scheduling
  // via the results mailbox).
  int sent = 0, received = 0;
  // Prime one task per worker.
  for (int w = 1; w <= n_workers && sent < n_tasks; ++w, ++sent)
    k.send(task_mbox[static_cast<size_t>(w)], new Work{sent, 0, rng.uniform(5e8, 2e9)}, 1e6);
  while (received < n_tasks) {
    auto* work = static_cast<Work*>(k.recv(results));
    const int idle = work->worker;
    ++received;
    std::printf("[%8.3f] master: task %d done by node%d (%d/%d)\n", k.now(), work->id, idle,
                received, n_tasks);
    delete work;
    if (sent < n_tasks)
      k.send(task_mbox[static_cast<size_t>(idle)], new Work{sent++, 0, rng.uniform(5e8, 2e9)}, 1e6);
  }
  // Poison pills.
  for (int w = 1; w <= n_workers; ++w)
    k.send(task_mbox[static_cast<size_t>(w)], new Work{-1, 0, 0.0, true}, 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  sg::config::parse_args(argc, argv);
  const int n_workers = argc > 1 ? std::atoi(argv[1]) : 4;
  const int n_tasks = argc > 2 ? std::atoi(argv[2]) : 16;

  sg::platform::ClusterSpec spec;
  spec.count = n_workers + 1;  // node0 is the master
  spec.host_speed = 1e9;
  Kernel kernel(sg::platform::make_cluster(spec));

  // Intern every mailbox once, before the actors start.
  const MailboxId results = kernel.mailbox_by_name("results");
  std::vector<MailboxId> task_mbox(static_cast<size_t>(n_workers) + 1, sg::kernel::kNoMailbox);
  for (int w = 1; w <= n_workers; ++w)
    task_mbox[static_cast<size_t>(w)] = kernel.mailbox_by_name("tasks:" + std::to_string(w));

  kernel.spawn("master", 0, [&] { master(kernel, n_tasks, n_workers, task_mbox, results); });
  for (int w = 1; w <= n_workers; ++w)
    kernel.spawn("worker" + std::to_string(w), w,
                 [&kernel, w, &task_mbox, results] {
                   worker(kernel, w, task_mbox[static_cast<size_t>(w)], results);
                 });

  const double end = kernel.run();
  std::printf("All %d tasks processed by %d workers in %.3f simulated seconds\n", n_tasks,
              n_workers, end);
  return 0;
}
