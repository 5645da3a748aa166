/// \file actor.hpp
/// Simulated processes ("processes can be created, suspended, resumed and
/// terminated dynamically" — the paper's MSG process model, shared by GRAS
/// and SMPI in simulation mode).
///
/// Actors live in the kernel's chunked slot arena (kernel.hpp): creation and
/// death are O(1) slot pushes, dead actors' slots (and their fiber stacks)
/// are recycled, and the hot per-actor state below is packed so a parked
/// actor costs well under 200 bytes on top of its (lazily committed) stack
/// pages. Cross-actor bookkeeping — which actors live on a host, which are
/// ready per shard — is index-linked through the slot ids rather than held
/// in per-actor containers, like the PR 3 solver arena.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "kernel/context.hpp"

namespace sg::kernel {

using ActorId = long;

/// Interned mailbox name: a dense index into the kernel's mailbox table.
/// Kernel::mailbox_by_name() converts a name exactly once at the API
/// boundary; every queue/match/send afterwards is an array index.
using MailboxId = std::int32_t;
constexpr MailboxId kNoMailbox = -1;

/// Why a blocked actor was woken up.
enum class WakeStatus {
  kOk,
  kTimeout,
  kHostFailure,
  kNetworkFailure,
  kCanceled,
};

struct Comm;
using CommPtr = std::shared_ptr<Comm>;

class Kernel;

/// A simcall recorded by an actor's quantum and committed by the maestro in
/// the serial epilogue (see the execution-model notes in kernel.hpp). The
/// record itself lives in the simcall wrapper's stack frame: the actor parks
/// right after filling it in, so the frame — including any pointed-to
/// arguments — stays stable until the commit, and result fields written by
/// the commit are read back by the wrapper when the actor next runs.
struct PendingSimcall {
  /// The kinds up to kSuspendSelf leave the actor parked after their commit
  /// (until a wake, a resume, or — for kYield — the next round); the others
  /// let it go on at once (see resumes_after).
  enum class Kind : std::uint8_t {
    kNone,
    kYield,          ///< yield_now / sleep_for(<=0): requeue for the next round
    kExec,           ///< execute(flops, priority)
    kPtask,          ///< execute_parallel(hosts, flops, bytes)
    kSleep,          ///< sleep_for(duration > 0)
    kSendWait,       ///< blocking send: async enqueue/match fused with the wait
    kRecvWait,       ///< blocking recv, same fusion
    kCommWait,       ///< comm_wait(comm, timeout) on an existing comm
    kSuspendSelf,    ///< suspend(self): parked until resumed by someone
    kSendAsync,      ///< cross-shard send_async / send_detached
    kRecvAsync,      ///< cross-shard recv_async
    kCommTest,       ///< comm_test(comm) on a cross-shard comm
    kCommProbe,      ///< comm_waiting on a non-home mailbox
    kInternMailbox,  ///< mailbox_by_name first use
    kSpawn,          ///< spawn(...)
    kKill,           ///< kill(other)
    kSuspendOther,   ///< suspend(other)
    kResume,         ///< resume(other)
    kHostState,      ///< host_off / host_on
    kLeaveHost,      ///< leave_host(host)
    kRejoinHost,     ///< rejoin_host(host)
  };

  /// True when the commit lets the actor go on right away.
  static bool resumes_after(Kind k) { return k > Kind::kSuspendSelf; }

  Kind kind = Kind::kNone;

  // Arguments — only the fields relevant to `kind` are meaningful. Pointer
  // fields point into the parked wrapper's frame (stable, see above).
  double flops = 0;
  double priority = 1.0;
  double duration = 0;
  double bytes = 0;
  double rate = -1.0;
  double timeout = -1.0;
  MailboxId mailbox = kNoMailbox;
  void* payload = nullptr;
  bool detached = false;
  bool host_on = false;
  ActorId target = -1;
  int host = -1;
  CommPtr comm;  ///< kCommWait/kCommTest argument; kSendWait/... result
  const std::vector<int>* ptask_hosts = nullptr;
  const std::vector<double>* ptask_flops = nullptr;
  const std::vector<std::vector<double>>* ptask_bytes = nullptr;
  const std::string* name = nullptr;          ///< kInternMailbox / kSpawn
  std::function<void()>* spawn_body = nullptr;
  bool spawn_daemon = false;
  bool spawn_auto_restart = false;

  // Results, filled by the commit.
  ActorId spawned = -1;
  MailboxId interned = kNoMailbox;
  bool flag_result = false;            ///< kCommTest / kCommProbe
  std::exception_ptr error;            ///< rethrown by the wrapper on resume
};

/// One simulated process. All state is owned by the kernel; user code
/// interacts through Kernel's simcall methods and through the ids.
class Actor {
public:
  Actor(ActorId id, std::string name, int host, std::function<void()> body, bool daemon, bool auto_restart);

  ActorId id() const { return id_; }
  const std::string& name() const { return name_; }
  int host() const { return host_; }
  bool daemon() const { return daemon_; }
  bool auto_restart() const { return auto_restart_; }

  enum class State : std::uint8_t {
    kReady,    ///< scheduled (or suspended-but-runnable)
    kBlocked,  ///< waiting in a simcall
    kDead,
  };
  State state() const { return state_; }
  bool suspended() const { return suspended_; }
  bool alive() const { return state_ != State::kDead; }

  /// Register a callback run (on the maestro) when the actor terminates.
  void on_exit(std::function<void(bool /*failed*/)> cb) { exit_callbacks_.push_back(std::move(cb)); }

  /// Arbitrary user slot (MSG attaches its process data here).
  void* user_data = nullptr;

private:
  friend class Kernel;

  ActorId id_;
  std::int32_t host_;
  std::int32_t shard_ = 0;  ///< run-queue shard (from Platform::shard_map())

  // Intrusive membership in the per-host live list (slot indices, -1 = end):
  // host failure kills residents in O(residents), not O(all actors ever).
  std::int32_t host_prev_ = -1;
  std::int32_t host_next_ = -1;
  std::uint32_t slot_ = 0;  ///< own index in the kernel's actor arena

  State state_ = State::kReady;
  bool daemon_;
  bool auto_restart_;
  bool suspended_ = false;
  bool in_ready_queue_ = false;
  bool killed_by_failure_ = false;
  WakeStatus wake_status_ = WakeStatus::kOk;
  std::uint32_t timer_gen_ = 0;  ///< invalidates in-flight timeout timers

  std::string name_;
  std::function<void()> body_;  ///< kept for auto-restart
  std::unique_ptr<Context> context_;

  // What the actor is blocked on (at most one at a time).
  core::ActionPtr blocked_action_;
  CommPtr blocked_comm_;

  /// Simcall recorded by the current quantum, awaiting its serial commit;
  /// points into the parked wrapper's frame (see PendingSimcall).
  PendingSimcall* pending_ = nullptr;

  /// Comms the running quantum matched on its home mailboxes, pending their
  /// serial engine start (set by Kernel::run_quantum for the quantum only).
  std::vector<CommPtr>* phase_starts_ = nullptr;

  std::vector<std::function<void(bool)>> exit_callbacks_;
};

}  // namespace sg::kernel
