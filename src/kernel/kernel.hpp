/// \file kernel.hpp
/// The simulation kernel ("maestro"): owns the SURF engine, schedules actor
/// contexts, matches communications on mailboxes, arms timeout timers, and
/// propagates resource failures to the actors they strand.
///
/// ## Execution model
///
/// Scheduling proceeds in rounds. Each round snapshots every shard's ready
/// batch, then runs two phases:
///
///  * **Scheduling phase** — each batched actor is resumed and runs user
///    code up to its next simcall. The simcall follows the lists-local rule:
///    side effects confined to the actor's home shard (matching on a
///    home-shard mailbox, allocating from the shard's comm pool) take
///    effect in the quantum itself; everything else — engine action
///    creation, timers, wakes, spawns, kills, cross-shard mailboxes — is
///    *recorded* into a PendingSimcall and the actor parks.
///  * **Serial epilogue** — the maestro commits the records in fixed shard
///    order (batch order within a shard): starts the matched comms, creates
///    engine actions, arms timers, reaps zombies, runs exit callbacks. When
///    a commit lets its actor go on (the non-blocking simcalls), the
///    epilogue runs that actor's next quantum right away and commits it in
///    turn, until the actor blocks or ends.
///
/// Every actor-side simcall takes this one record-and-park path, whether
/// its quantum started a round or continues a commit: self() is non-null
/// exactly while a quantum runs, and the maestro (self() == nullptr) calls
/// the direct bodies. The one exception is a killed actor unwinding inside
/// kill_internal: its non-blocking simcalls commit on its own stack and its
/// blocking ones raise ForcedExit, since nothing could ever wake them.
///
/// With `engine/parallel-actors` off (default) the scheduling phase runs on
/// the maestro; with it on, it fans out over the engine's ShardWorkers lanes
/// (lane_of = shard % lanes, the same mapping as the engine's solve/advance
/// phases). Because everything order-sensitive is committed by the serial
/// epilogue either way, the observable schedule — event logs, clocks,
/// counters — is identical at every lane count, and identical to serial.
///
/// Scale shape (the "millions of users" path): actors live in a chunked slot
/// arena with O(1) spawn/death and slot+stack recycling, mailbox names are
/// interned to dense ids once at the API boundary (each mailbox homed on the
/// interning actor's shard), comm control blocks are pooled per shard, and
/// the ready set is split into per-shard run queues keyed off
/// Platform::shard_map() — a round drains one zone's wakeups as a batch, so
/// the solver and heap shard that zone's simcalls touch stay cache-resident,
/// while the fixed shard rotation keeps the schedule deterministic and
/// reproducible across context backends and lane counts.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "kernel/actor.hpp"
#include "kernel/comm.hpp"

namespace sg::kernel {

struct CommBlockPool;  // LIFO recycler for comm control blocks (kernel.cpp)

class Kernel {
public:
  explicit Kernel(platform::Platform platform);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  core::Engine& engine() { return engine_; }
  double now() const { return engine_.now(); }

  // -- lifecycle --------------------------------------------------------------
  /// Create a process on a host. It will start running inside run().
  /// daemon actors do not prevent simulation termination; auto_restart actors
  /// are respawned when their host reboots after a failure.
  ActorId spawn(const std::string& name, int host, std::function<void()> body, bool daemon = false,
                bool auto_restart = false);

  /// Run the simulation until no non-daemon actor remains (or deadlock).
  /// Returns the final simulated time.
  double run();

  /// True when run() ended because live actors were all stuck forever.
  bool deadlocked() const { return deadlocked_; }

  // -- actor-side simcalls -----------------------------------------------------
  /// The actor whose quantum is running (nullptr on the maestro), and its
  /// kernel.
  static Actor* self();
  static Kernel* current();

  /// Simulate `flops` of computation on the calling actor's host.
  void execute(double flops, double priority = 1.0);
  /// Simulate a parallel task spanning several hosts (flops per host) and the
  /// communications between them (bytes[i][j] from hosts[i] to hosts[j]).
  void execute_parallel(const std::vector<int>& hosts, const std::vector<double>& flops,
                        const std::vector<std::vector<double>>& bytes);
  /// Simulate a delay.
  void sleep_for(double duration);
  /// Cooperatively yield (reschedule self at the back of the ready queue).
  void yield_now();
  /// Terminate the calling actor.
  [[noreturn]] void exit_self();

  // -- mailboxes ---------------------------------------------------------------
  /// Intern a mailbox name to its dense id (creating the mailbox on first
  /// use). Call once at the API boundary; the id-keyed simcalls below are
  /// the hot path — no hashing, no string construction per communication.
  MailboxId mailbox_by_name(const std::string& name);
  /// The name a mailbox id was interned from (logging / debugging).
  const std::string& mailbox_name(MailboxId id) const { return mailbox_names_[static_cast<size_t>(id)]; }

  /// Blocking send: rendezvous on the mailbox, then transfer `bytes` from the
  /// caller's host to the receiver's host. timeout < 0 = wait forever.
  void send(MailboxId mailbox, void* payload, double bytes, double timeout = -1.0, double rate = -1.0);
  /// Fire-and-forget send (the comm lives on after the caller moves on).
  void send_detached(MailboxId mailbox, void* payload, double bytes, double rate = -1.0);
  /// Blocking receive. Returns the payload; source (if non-null) receives the
  /// sending actor's id.
  void* recv(MailboxId mailbox, double timeout = -1.0, ActorId* source = nullptr);

  /// Asynchronous variants (used by SMPI's Isend/Irecv). A comm its actor
  /// never waits on is withdrawn, unmatched, once the actor ends (comm.hpp).
  CommPtr send_async(MailboxId mailbox, void* payload, double bytes, double rate = -1.0);
  CommPtr recv_async(MailboxId mailbox);

  /// Is a send from a live sender (or a detached one) queued on this
  /// mailbox? (message probe)
  bool comm_waiting(MailboxId mailbox);

  /// Wait for an async comm; throws like send/recv. Returns the payload.
  void* comm_wait(const CommPtr& comm, double timeout = -1.0);
  /// Non-blocking completion test.
  bool comm_test(const CommPtr& comm);

  // -- actor management ---------------------------------------------------------
  void suspend(ActorId id);
  void resume(ActorId id);
  void kill(ActorId id);

  bool is_alive(ActorId id) const;
  Actor* actor(ActorId id);
  size_t alive_actor_count() const { return live_count_; }
  /// Ids of all live actors (snapshot, ascending).
  std::vector<ActorId> live_actors() const;

  // -- platform control (fault injection) ---------------------------------------
  void host_off(int host);
  void host_on(int host);

  // -- platform control (dynamic membership) ------------------------------------
  /// Join a new host to a sealed platform (cluster zone auto-wiring). Returns
  /// the new host index. Serial-section only (maestro / between runs).
  int join_host(platform::ZoneId zone, const std::string& name = "", double speed_flops = -1.0);
  /// Join with an explicit spec, attachment node and uplink (graph zones).
  int join_host(const platform::HostSpec& spec, platform::NodeId attach,
                const platform::LinkSpec& uplink);
  /// Remove a host from the membership: residents are killed, transit comms
  /// fail under `engine/kill-transit-comms`, constraints are released. Legal
  /// from an actor (a simcall) or from maestro.
  void leave_host(int host);
  /// Bring a departed host back: constraints are recreated through the
  /// id-recycling paths and auto-restart residents respawn.
  void rejoin_host(int host);

  // -- introspection -------------------------------------------------------------
  /// Scheduler counters (monotonic over the kernel's lifetime). Wakeups and
  /// context switches accumulate in per-lane counters (a plain shared
  /// increment from concurrent lanes would be a data race) and are summed
  /// here on read; call from a serial section for an exact snapshot.
  struct Stats {
    std::uint64_t actors_spawned = 0;
    std::uint64_t wakeups = 0;           ///< blocked -> ready transitions
    std::uint64_t context_switches = 0;  ///< scheduler -> actor resumes
  };
  Stats stats() const;
  /// The context backend in use (pool stats, backend name).
  const ContextFactory& context_factory() const { return *context_factory_; }

private:
  struct Timer {
    double time;
    ActorId actor;
    std::uint32_t gen;
    bool operator>(const Timer& o) const { return time > o.time; }
  };

  struct RestartSpec {
    std::string name;
    int host;
    std::function<void()> body;
    bool daemon;
  };

  // -- actor slot arena ---------------------------------------------------------
  // Chunked so Actor addresses are stable while slots of dead actors (and
  // their fiber stacks) are recycled. 256 actors per chunk.
  static constexpr unsigned kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  struct ActorChunk;

  Actor* slot(std::uint32_t s) const;
  Actor* allocate_actor(ActorId id, const std::string& name, int host, std::function<void()> body,
                        bool daemon, bool auto_restart);
  /// Destroy a dead actor and recycle its slot. Only legal once the actor is
  /// no longer in a ready queue (scheduler sweeps reap deferred zombies).
  void reap_actor(Actor* a);
  void host_list_insert(Actor* a);
  void host_list_remove(Actor* a);
  std::int32_t shard_for_host(int host) const;

  void handle_actor_end(Actor* a);
  void schedule(Actor* a);
  void wake(Actor* a, WakeStatus status);

  // -- round-based scheduling (see the execution-model notes above) -------------
  /// One actor's quantum: what it recorded, the comms its home-mailbox
  /// simcalls matched, whether its body ended.
  struct RanActor {
    Actor* actor = nullptr;
    ActorId id = -1;  ///< guards against the slot being reaped + reused mid-epilogue
    PendingSimcall* rec = nullptr;
    std::vector<CommPtr> started;  ///< home-shard matches, in quantum order
    bool finished = false;
    bool zombie = false;  ///< popped dead: reap in the epilogue
  };
  /// Snapshot batches, run the scheduling phase (serial or on `workers`),
  /// then commit the epilogue. Returns true when any actor ran.
  bool run_scheduling_round(core::ShardWorkers* workers);
  /// Drain one shard's batch; runs on the shard's lane during the phase.
  void run_shard_batch(int shard, int lanes);
  /// Resume `a` on the calling thread until its next simcall or its end,
  /// recording the outcome into `r` (the kernel's only resume point).
  void run_quantum(Actor* a, RanActor& r);
  /// Serial commit of one quantum's record, then of each continuation
  /// quantum while the commits let the actor go on.
  void commit_ran(RanActor& r);
  /// Engine-start the comms a quantum matched on its home mailboxes.
  void start_matched(RanActor& r);
  /// Apply one record's effects, as the maestro.
  void commit_record(Actor* a, PendingSimcall& rec);
  /// Commit helper: park-for-wait bookkeeping for a (possibly fresh) comm.
  void commit_comm_wait(Actor* a, PendingSimcall& rec, const CommPtr& comm);
  /// Actor side: publish `rec` and park until the epilogue commits it (or,
  /// while a kill unwinds the actor, commit it in place).
  void record_and_park(Actor* a, PendingSimcall& rec);
  /// host_off / host_on / leave_host / rejoin_host: record or apply.
  void host_simcall(PendingSimcall::Kind kind, int host, bool on);
  void arm_timeout(Actor* a, double timeout);
  size_t total_ready() const;

  CommPtr make_comm(Actor* for_actor);
  Mailbox& mailbox_ref(MailboxId id) { return mailboxes_[static_cast<size_t>(id)]; }
  MailboxId intern_mailbox(const std::string& name, std::int32_t home);
  CommPtr send_async_impl(Actor* a, MailboxId mb, void* payload, double bytes, double rate);
  CommPtr recv_async_impl(Actor* a, MailboxId mb);
  void start_comm(const CommPtr& comm);
  void finish_comm(const CommPtr& comm, WakeStatus result);
  void handle_action_event(const core::ActionEvent& ev);
  void fire_due_timers();
  void detach_from_comm(Actor* a);
  /// Wake the other party of `a`'s comm with a network failure, if it waits.
  void fail_waiting_peer(const Comm& comm, const Actor* a);
  /// Withdraw the orphans at the front of a mailbox queue (endpoint lifetime
  /// invariant, comm.hpp); true when a live comm is left at the front.
  bool drop_orphans(std::deque<CommPtr>& q);
  void kill_internal(Actor* a, bool by_failure);
  void process_resource_changes();
  void remove_from_mailbox(const CommPtr& comm);
  /// Kill every live actor (id order) and reap zombies left in run queues.
  void teardown_all_actors();

  // Declared first so it is destroyed last: Actor teardown returns fiber
  // stacks to the factory's pool.
  std::unique_ptr<ContextFactory> context_factory_;
  core::Engine engine_;

  // Actor arena + indexes.
  std::vector<std::unique_ptr<ActorChunk>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slot_high_ = 0;  ///< slots carved so far
  /// Per slot: id of the live actor in it, -1 once it ended. Written only
  /// serially; quanta read it to spot orphaned queued comms.
  std::vector<ActorId> slot_owner_;
  std::unordered_map<ActorId, std::uint32_t> id_to_slot_;  ///< live + zombie actors
  ActorId next_actor_id_ = 1;
  std::vector<std::int32_t> host_live_head_;  ///< per host: first live resident slot
  size_t live_count_ = 0;
  size_t live_nondaemon_ = 0;

  // Per-shard run queues (see the file comment).
  std::vector<std::deque<Actor*>> ready_;
  // Round scratch: per-shard batch sizes and quantum records; each lane
  // writes only its own shards' entries during the scheduling phase.
  std::vector<size_t> batch_;
  std::vector<std::vector<RanActor>> ran_;

  // Interned mailboxes. The tables are only mutated serially; scheduling-
  // phase reads (name lookups, home checks) are therefore race-free.
  std::deque<Mailbox> mailboxes_;  ///< by id; deque keeps references stable
  std::vector<std::string> mailbox_names_;
  std::unordered_map<std::string, MailboxId> mailbox_ids_;

  /// Per-shard comm-block pools: a home lane allocates from its own shard's
  /// pool lock-free of the others; deallocation (a CommPtr can drop on any
  /// thread) is mutex-guarded inside the pool.
  std::vector<std::shared_ptr<CommBlockPool>> comm_pools_;
  std::unordered_map<const core::Action*, CommPtr> inflight_;  ///< running transfers
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::vector<std::pair<int, bool>> host_changes_;  ///< deferred (host, now_on)
  std::vector<RestartSpec> pending_restarts_;  ///< respawn when host returns
  Stats stats_;  ///< serial-only counters (actors_spawned)
  /// Per-lane wakeup/switch counters, padded so lanes never share a line.
  struct alignas(64) LaneCounters {
    std::uint64_t wakeups = 0;
    std::uint64_t context_switches = 0;
  };
  std::vector<LaneCounters> lane_counters_;
  bool parallel_actors_ = false;  ///< engine/parallel-actors, snapshotted at build
  bool deadlocked_ = false;
  bool running_ = false;
};

}  // namespace sg::kernel
