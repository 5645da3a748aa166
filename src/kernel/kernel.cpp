#include "kernel/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <mutex>
#include <new>

#include "core/workers.hpp"
#include "xbt/exception.hpp"
#include "xbt/log.hpp"
#include "xbt/str.hpp"

SG_LOG_NEW_CATEGORY(kernel, "simulation kernel (maestro)");

namespace sg::kernel {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// The actor whose quantum is running and its kernel, per OS thread: during
// a parallel scheduling phase every lane has its own current actor.
// run_quantum sets these on the resuming thread, which is where fiber bodies
// run; thread-backend bodies run on their own OS thread and publish the same
// values there once, when the body starts (see spawn). g_active_kernel stays
// a plain global: it is only written from kernel construction/destruction
// (serial by definition).
thread_local Actor* g_current_actor = nullptr;
thread_local Kernel* g_current_kernel = nullptr;
Kernel* g_active_kernel = nullptr;

double clock_provider() { return g_active_kernel ? g_active_kernel->now() : -1.0; }
const char* actor_provider() { return g_current_actor ? g_current_actor->name().c_str() : nullptr; }

/// Translate a wake status into the exception the simcall should raise.
void check_status(WakeStatus st) {
  switch (st) {
    case WakeStatus::kOk:
      return;
    case WakeStatus::kTimeout:
      throw xbt::TimeoutException();
    case WakeStatus::kHostFailure:
      throw xbt::HostFailureException();
    case WakeStatus::kNetworkFailure:
      throw xbt::NetworkFailureException();
    case WakeStatus::kCanceled:
      throw xbt::CancelException();
  }
}
}  // namespace

Actor::Actor(ActorId id, std::string name, int host, std::function<void()> body, bool daemon,
             bool auto_restart)
    : id_(id), host_(host), daemon_(daemon), auto_restart_(auto_restart), name_(std::move(name)),
      body_(std::move(body)) {}

// -- comm control-block pool ---------------------------------------------------
// Same shape as the engine's ActionBlockPool: allocate_shared fuses the Comm
// and its shared_ptr control block into one allocation of a single size,
// which a LIFO free list then recycles — at millions of rendezvous per run
// the allocator drops off the profile and recycled blocks come back
// cache-warm. One pool per run-queue shard: allocation happens on the home
// lane (or the maestro), but the last CommPtr reference to a block can drop
// on any thread, so both sides of the free list take the pool's mutex.

struct CommBlockPool {
  static constexpr size_t kMaxFreeBlocks = 64 * 1024;
  std::mutex mutex;
  std::vector<void*> free_blocks;
  size_t block_bytes = 0;  ///< learned from the first allocation

  ~CommBlockPool() {
    for (void* p : free_blocks)
      ::operator delete(p);
  }

  void* allocate(size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex);
    if (block_bytes == 0)
      block_bytes = bytes;
    if (bytes == block_bytes && !free_blocks.empty()) {
      void* p = free_blocks.back();
      free_blocks.pop_back();
      return p;
    }
    return ::operator new(bytes);
  }

  void deallocate(void* p, size_t bytes) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (bytes == block_bytes && free_blocks.size() < kMaxFreeBlocks) {
        free_blocks.push_back(p);
        return;
      }
    }
    ::operator delete(p);
  }
};

namespace {
template <typename T>
struct CommPoolAllocator {
  using value_type = T;

  explicit CommPoolAllocator(std::shared_ptr<CommBlockPool> pool) : pool_(std::move(pool)) {}
  template <typename U>
  CommPoolAllocator(const CommPoolAllocator<U>& other) : pool_(other.pool_) {}

  T* allocate(size_t n) { return static_cast<T*>(pool_->allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) { pool_->deallocate(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const CommPoolAllocator<U>& other) const {
    return pool_ == other.pool_;
  }

  std::shared_ptr<CommBlockPool> pool_;
};
}  // namespace

CommPtr Kernel::make_comm(Actor* for_actor) {
  const size_t shard = for_actor != nullptr ? static_cast<size_t>(for_actor->shard_) : 0;
  return std::allocate_shared<Comm>(CommPoolAllocator<Comm>(comm_pools_[shard]));
}

// -- actor slot arena ----------------------------------------------------------

struct Kernel::ActorChunk {
  alignas(Actor) unsigned char raw[sizeof(Actor) * kChunkSize];
};

Actor* Kernel::slot(std::uint32_t s) const {
  auto* chunk = const_cast<ActorChunk*>(chunks_[s >> kChunkShift].get());
  return std::launder(reinterpret_cast<Actor*>(chunk->raw + sizeof(Actor) * (s & (kChunkSize - 1))));
}

Actor* Kernel::allocate_actor(ActorId id, const std::string& name, int host, std::function<void()> body,
                              bool daemon, bool auto_restart) {
  std::uint32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = slot_high_++;
    if ((s >> kChunkShift) >= chunks_.size()) {
      chunks_.push_back(std::make_unique<ActorChunk>());
      slot_owner_.resize(chunks_.size() * kChunkSize, -1);
    }
  }
  void* raw = chunks_[s >> kChunkShift]->raw + sizeof(Actor) * (s & (kChunkSize - 1));
  Actor* a = new (raw) Actor(id, name, host, std::move(body), daemon, auto_restart);
  a->slot_ = s;
  slot_owner_[s] = id;
  return a;
}

void Kernel::reap_actor(Actor* a) {
  assert(!a->in_ready_queue_ && "cannot reap an actor still queued");
  id_to_slot_.erase(a->id_);
  const std::uint32_t s = a->slot_;
  a->~Actor();  // the Context dtor returns the fiber stack to the pool
  free_slots_.push_back(s);
}

void Kernel::host_list_insert(Actor* a) {
  auto& head = host_live_head_[static_cast<size_t>(a->host_)];
  a->host_prev_ = -1;
  a->host_next_ = head;
  if (head != -1)
    slot(static_cast<std::uint32_t>(head))->host_prev_ = static_cast<std::int32_t>(a->slot_);
  head = static_cast<std::int32_t>(a->slot_);
}

void Kernel::host_list_remove(Actor* a) {
  if (a->host_prev_ != -1)
    slot(static_cast<std::uint32_t>(a->host_prev_))->host_next_ = a->host_next_;
  else
    host_live_head_[static_cast<size_t>(a->host_)] = a->host_next_;
  if (a->host_next_ != -1)
    slot(static_cast<std::uint32_t>(a->host_next_))->host_prev_ = a->host_prev_;
  a->host_prev_ = a->host_next_ = -1;
}

std::int32_t Kernel::shard_for_host(int host) const {
  if (ready_.size() <= 1)
    return 0;
  const auto& sm = engine_.platform().shard_map();
  if (static_cast<size_t>(host) < sm.host_shard.size()) {
    const std::int32_t s = sm.host_shard[static_cast<size_t>(host)];
    if (s >= 0 && static_cast<size_t>(s) < ready_.size())
      return s;
  }
  return 0;
}

// -- kernel lifecycle ----------------------------------------------------------

Kernel::Kernel(platform::Platform platform)
    : context_factory_(ContextFactory::from_config()), engine_(std::move(platform)) {
  engine_.set_resource_observer([this](bool is_host, int index, bool on) {
    if (is_host)
      host_changes_.push_back({index, on});
  });
  const auto& pf = engine_.platform();
  host_live_head_.assign(pf.host_count(), -1);
  const auto& sm = pf.shard_map();
  const bool sharded = sm.shard_count > 0 && sm.host_shard.size() == pf.host_count();
  ready_.resize(sharded ? static_cast<size_t>(sm.shard_count) : 1);
  batch_.resize(ready_.size());
  ran_.resize(ready_.size());
  comm_pools_.resize(ready_.size());
  for (auto& pool : comm_pools_)
    pool = std::make_shared<CommBlockPool>();
  lane_counters_.resize(static_cast<size_t>(std::max(1, engine_.thread_count())));
  parallel_actors_ =
      config::get(core::kCfgParallelActors) && engine_.thread_count() > 1 && ready_.size() > 1;
  g_active_kernel = this;
  xbt::log_set_clock_provider(&clock_provider);
  xbt::log_set_actor_provider(&actor_provider);
  SG_DEBUG(kernel, "kernel up: %s contexts, %zu run-queue shard(s), %s scheduling",
           context_factory_->backend_name(), ready_.size(),
           parallel_actors_ ? "parallel" : "serial");
}

Kernel::~Kernel() {
  teardown_all_actors();
  if (g_active_kernel == this)
    g_active_kernel = nullptr;
}

void Kernel::teardown_all_actors() {
  // Kill survivors in id order (deterministic exit-callback order). Work
  // from ids, not pointers: killing one actor can transitively end others
  // (exit callbacks), and ended actors are reaped eagerly.
  for (ActorId id : live_actors()) {
    auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end())
      continue;
    Actor* a = slot(it->second);
    if (a->alive())
      kill_internal(a, false);
  }
  // Reap the zombies those deaths left in the run queues.
  for (auto& q : ready_) {
    while (!q.empty()) {
      Actor* a = q.front();
      q.pop_front();
      a->in_ready_queue_ = false;
      if (!a->alive())
        reap_actor(a);
    }
  }
}

Actor* Kernel::self() { return g_current_actor; }
Kernel* Kernel::current() { return g_current_kernel != nullptr ? g_current_kernel : g_active_kernel; }

ActorId Kernel::spawn(const std::string& name, int host, std::function<void()> body, bool daemon,
                      bool auto_restart) {
  if (Actor* a = self()) {
    // Spawning touches the slot arena, the id map and (via schedule) a ready
    // queue that may belong to another lane — serial work, all of it.
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kSpawn;
    rec.name = &name;
    rec.host = host;
    rec.spawn_body = &body;
    rec.spawn_daemon = daemon;
    rec.spawn_auto_restart = auto_restart;
    record_and_park(a, rec);
    return rec.spawned;
  }
  if (host < 0 || static_cast<size_t>(host) >= engine_.platform().host_count())
    throw xbt::InvalidArgument("spawn: no such host");
  if (!engine_.host_present(host))
    throw xbt::HostFailureException(
        "spawn: host " + engine_.platform().host(host).name + " departed at t=" +
        xbt::format("%g", engine_.platform().host_departed_at(host)) +
        " (rejoin_host() restores it)");
  if (!engine_.host_is_on(host))
    throw xbt::HostFailureException("spawn: host " + engine_.platform().host(host).name + " is down");
  const ActorId id = next_actor_id_++;
  Actor* a = allocate_actor(id, name, host, std::move(body), daemon, auto_restart);
  a->shard_ = shard_for_host(host);
  a->context_ = context_factory_->create([this, a] {
    // Publish identity in the *body's* thread-local slots: thread-backend
    // actors run on their own OS thread, which run_quantum (running on the
    // resuming lane) cannot reach. Fibers run on the resuming thread, where
    // run_quantum already published the same values.
    g_current_actor = a;
    g_current_kernel = this;
    a->body_();
  });
  id_to_slot_.emplace(id, a->slot_);
  host_list_insert(a);
  ++live_count_;
  if (!a->daemon_)
    ++live_nondaemon_;
  ++stats_.actors_spawned;
  schedule(a);
  SG_DEBUG(kernel, "spawned actor %ld '%s' on %s", id, name.c_str(),
           engine_.platform().host(host).name.c_str());
  return id;
}

void Kernel::schedule(Actor* a) {
  if (a->state_ == Actor::State::kReady && !a->suspended_ && !a->in_ready_queue_) {
    ready_[static_cast<size_t>(a->shard_)].push_back(a);
    a->in_ready_queue_ = true;
  }
}

size_t Kernel::total_ready() const {
  size_t n = 0;
  for (const auto& q : ready_)
    n += q.size();
  return n;
}

void Kernel::wake(Actor* a, WakeStatus status) {
  if (a->state_ != Actor::State::kBlocked)
    return;
  a->wake_status_ = status;
  a->state_ = Actor::State::kReady;
  ++a->timer_gen_;
  if (a->blocked_action_) {
    // Unhook before any straggler event for this action can observe a slot
    // that was meanwhile reaped and reused.
    a->blocked_action_->user_data = nullptr;
    a->blocked_action_.reset();
  }
  a->blocked_comm_.reset();
  ++lane_counters_[static_cast<size_t>(context_lane())].wakeups;
  schedule(a);
}

Kernel::Stats Kernel::stats() const {
  Stats out = stats_;
  for (const auto& lane : lane_counters_) {
    out.wakeups += lane.wakeups;
    out.context_switches += lane.context_switches;
  }
  return out;
}

void Kernel::handle_actor_end(Actor* a) {
  if (a->state_ == Actor::State::kDead)
    return;
  a->state_ = Actor::State::kDead;
  slot_owner_[a->slot_] = -1;  // orphans its un-waited queued comms (comm.hpp)
  a->pending_ = nullptr;
  ++a->timer_gen_;
  if (a->blocked_action_) {
    a->blocked_action_->user_data = nullptr;
    a->blocked_action_.reset();
  }
  a->blocked_comm_.reset();
  host_list_remove(a);
  --live_count_;
  if (!a->daemon_)
    --live_nondaemon_;
  if (a->context_->failure()) {
    try {
      std::rethrow_exception(a->context_->failure());
    } catch (const std::exception& e) {
      SG_ERROR(kernel, "actor '%s' died of an uncaught exception: %s", a->name_.c_str(), e.what());
    } catch (...) {
      SG_ERROR(kernel, "actor '%s' died of an uncaught exception", a->name_.c_str());
    }
  }
  for (auto& cb : a->exit_callbacks_)
    cb(a->killed_by_failure_);
  if (a->auto_restart_ && a->killed_by_failure_)
    pending_restarts_.push_back({a->name_, a->host_, a->body_, a->daemon_});
  SG_DEBUG(kernel, "actor %ld '%s' terminated", a->id_, a->name_.c_str());
  // Recycle the slot right away unless the actor still sits in a run queue
  // (killed while ready); the scheduler sweep reaps it when popped.
  if (!a->in_ready_queue_)
    reap_actor(a);
}

double Kernel::run() {
  running_ = true;
  long idle_rounds = 0;
  // The scheduling phase fans out only when the flag is on AND there is
  // something to fan out over (multiple lanes, multiple shards).
  core::ShardWorkers* const workers =
      (parallel_actors_ && ready_.size() > 1) ? engine_.workers() : nullptr;
  while (true) {
    bool any_ran = false;
    while (total_ready() > 0)
      any_ran = run_scheduling_round(workers) || any_ran;

    if (live_nondaemon_ == 0)
      break;

    // Engine time advance: engine/threads parallelism lives entirely below
    // this call, and all actor-visible effects are committed serially above.
    const double timer_bound = timers_.empty() ? kInf : timers_.top().time;
    const auto events = engine_.run_until(timer_bound);
    for (const auto& ev : events)
      handle_action_event(ev);
    fire_due_timers();
    process_resource_changes();

    if (!events.empty() || any_ran || total_ready() > 0) {
      idle_rounds = 0;
      continue;
    }
    const double next = engine_.next_event_time();
    if (next == kInf && timers_.empty() && total_ready() == 0) {
      deadlocked_ = true;
      SG_WARN(kernel, "deadlock: %zu actor(s) blocked forever at t=%g; stopping the simulation",
              alive_actor_count(), engine_.now());
      for (ActorId id : live_actors()) {
        const Actor* a = slot(id_to_slot_.at(id));
        SG_WARN(kernel, "  blocked actor: '%s' on %s", a->name_.c_str(),
                engine_.platform().host(a->host_).name.c_str());
      }
      break;
    }
    if (++idle_rounds > 1000000) {
      deadlocked_ = true;
      SG_ERROR(kernel, "giving up: 1e6 idle scheduling rounds (runaway trace events?)");
      break;
    }
  }

  // Tear down survivors (daemons, deadlocked actors).
  teardown_all_actors();
  running_ = false;
  return engine_.now();
}

// -- round-based scheduling -----------------------------------------------------

bool Kernel::run_scheduling_round(core::ShardWorkers* workers) {
  const int shards = static_cast<int>(ready_.size());
  // Snapshot every shard's batch up front: a round runs exactly the actors
  // that were ready when it began, in both modes, so mid-round wakes always
  // land in the next round regardless of which shard they touch.
  for (int s = 0; s < shards; ++s) {
    batch_[static_cast<size_t>(s)] = ready_[static_cast<size_t>(s)].size();
    ran_[static_cast<size_t>(s)].clear();
  }

  // Scheduling phase: user code runs up to its next simcall (see the
  // execution-model notes in kernel.hpp). Lane i drains shards ≡ i (mod
  // lanes) — the same ShardWorkers mapping, pool, and generation barrier as
  // the engine's solve/advance phases.
  if (workers != nullptr) {
    const int lanes = engine_.thread_count();
    workers->run(shards, [this, lanes](int s) { run_shard_batch(s, lanes); });
    set_context_lane(0);  // back to the maestro's lane for the serial phases
  } else {
    for (int s = 0; s < shards; ++s)
      run_shard_batch(s, 1);
  }

  // Serial epilogue: commit every quantum in fixed shard order, batch order
  // within a shard. All engine actions, timers, wakes, spawns, kills, and
  // reaps happen here, so their order — and thus the event log — does not
  // depend on lane interleaving.
  bool any_ran = false;
  for (int s = 0; s < shards; ++s) {
    for (RanActor& r : ran_[static_cast<size_t>(s)]) {
      if (!r.zombie)
        any_ran = true;
      commit_ran(r);
      process_resource_changes();
    }
    ran_[static_cast<size_t>(s)].clear();  // drop CommPtr references promptly
  }
  return any_ran;
}

void Kernel::run_shard_batch(int shard, int lanes) {
  set_context_lane(lanes > 1 ? shard % lanes : 0);
  auto& q = ready_[static_cast<size_t>(shard)];
  auto& ran = ran_[static_cast<size_t>(shard)];
  for (size_t n = batch_[static_cast<size_t>(shard)]; n > 0; --n) {
    Actor* a = q.front();
    q.pop_front();
    a->in_ready_queue_ = false;
    if (!a->alive()) {
      // Killed while queued: reaping touches the shared arena, so defer it
      // to the epilogue (deterministic zombie reaping).
      RanActor r;
      r.actor = a;
      r.id = a->id_;
      r.zombie = true;
      ran.push_back(std::move(r));
      continue;
    }
    if (a->state_ != Actor::State::kReady || a->suspended_)
      continue;
    RanActor r;
    r.actor = a;
    r.id = a->id_;
    run_quantum(a, r);
    ran.push_back(std::move(r));
  }
}

void Kernel::run_quantum(Actor* a, RanActor& r) {
  a->pending_ = nullptr;
  a->phase_starts_ = &r.started;
  Actor* const prev_actor = g_current_actor;
  Kernel* const prev_kernel = g_current_kernel;
  g_current_actor = a;
  g_current_kernel = this;
  ++lane_counters_[static_cast<size_t>(context_lane())].context_switches;
  r.finished = a->context_->resume_and_wait();
  g_current_actor = prev_actor;
  g_current_kernel = prev_kernel;
  a->phase_starts_ = nullptr;  // r.started may move; never read while parked
  r.rec = r.finished ? nullptr : a->pending_;
  assert((r.finished || r.rec != nullptr) && "a quantum must end in a simcall or termination");
}

void Kernel::record_and_park(Actor* a, PendingSimcall& rec) {
  if (a->context_->kill_requested()) {
    // Unwinding after a kill: kill_internal drives this body serially, and
    // nothing will resume it once it parks. A simcall that would wait raises
    // ForcedExit; any other commits right here, as the maestro would.
    if (!PendingSimcall::resumes_after(rec.kind))
      throw ForcedExit{};
    g_current_actor = nullptr;
    commit_record(a, rec);
    g_current_actor = a;
  } else {
    a->pending_ = &rec;
    a->state_ = Actor::State::kBlocked;
    a->context_->yield();
    // Resumed: the record was committed (results valid), or the actor was
    // woken with a status after blocking.
  }
  if (rec.error)
    std::rethrow_exception(rec.error);
}

void Kernel::arm_timeout(Actor* a, double timeout) {
  if (timeout >= 0)
    timers_.push(Timer{engine_.now() + timeout, a->id_, a->timer_gen_});
}

void Kernel::commit_comm_wait(Actor* a, PendingSimcall& rec, const CommPtr& comm) {
  if (comm->state == Comm::State::kFinished) {
    // Already resolved: requeue the actor with the comm's outcome, from a
    // continuation quantum as from any other.
    wake(a, comm->result);
    return;
  }
  if (comm->sender_id == a->id_)
    comm->sender_waiting = true;
  else
    comm->receiver_waiting = true;
  a->blocked_comm_ = comm;
  arm_timeout(a, rec.timeout);
}

void Kernel::start_matched(RanActor& r) {
  // A comm detached (finished) by a kill since its match is skipped.
  for (CommPtr& c : r.started)
    if (c->state == Comm::State::kMatched)
      start_comm(c);
  r.started.clear();
}

void Kernel::commit_ran(RanActor& r) {
  if (r.zombie) {
    reap_actor(r.actor);
    return;
  }
  Actor* const a = r.actor;
  // Identity guard: an earlier commit in this epilogue — or this actor's own
  // kill commit, through exit callbacks — may have killed the actor, and its
  // slot may already host a respawned successor.
  auto same_actor = [&] {
    auto it = id_to_slot_.find(r.id);
    return it != id_to_slot_.end() && slot(it->second) == a;
  };
  // A loop, not recursion: a long chain of non-blocking simcalls must not
  // grow the maestro's stack.
  while (true) {
    // Replay the quantum's home-mailbox comm starts first: in program order
    // they happened before whatever the actor last recorded — and they must
    // replay even if the actor was killed meanwhile, or the matched peer
    // would be stranded on a comm that never starts.
    start_matched(r);
    if (!same_actor())
      return;
    if (r.finished) {
      if (a->alive())
        handle_actor_end(a);
      return;
    }
    if (!a->alive() || a->pending_ != r.rec)
      return;  // killed while parked earlier in this epilogue; already unwound
    const PendingSimcall::Kind kind = r.rec->kind;
    a->pending_ = nullptr;
    commit_record(a, *r.rec);
    if (!PendingSimcall::resumes_after(kind) || !same_actor() || !a->alive())
      return;
    // The actor goes on: its continuation is an ordinary quantum, committed
    // by the next pass.
    a->state_ = Actor::State::kReady;
    run_quantum(a, r);
  }
}

void Kernel::commit_record(Actor* a, PendingSimcall& rec) {
  // Commits run as the maestro, so the simcalls called below take their
  // direct bodies. Any exception (host down, bad arguments) surfaces in the
  // actor when it next runs.
  try {
    switch (rec.kind) {
      case PendingSimcall::Kind::kYield:
        a->state_ = Actor::State::kReady;
        schedule(a);
        break;

      case PendingSimcall::Kind::kExec:
      case PendingSimcall::Kind::kPtask:
      case PendingSimcall::Kind::kSleep: {
        core::ActionPtr action;
        if (rec.kind == PendingSimcall::Kind::kExec)
          action = engine_.exec_start(a->host_, rec.flops, rec.priority, a->name_ + ":exec");
        else if (rec.kind == PendingSimcall::Kind::kPtask)
          action = engine_.ptask_start(*rec.ptask_hosts, *rec.ptask_flops, *rec.ptask_bytes,
                                       a->name_ + ":ptask");
        else
          action = engine_.sleep_start(a->host_, rec.duration, a->name_ + ":sleep");
        action->user_data = a;
        if (a->suspended_)
          action->suspend();  // suspended while parked: start the work paused
        a->blocked_action_ = std::move(action);
        break;
      }

      case PendingSimcall::Kind::kSendWait:
        rec.comm = send_async_impl(a, rec.mailbox, rec.payload, rec.bytes, rec.rate);
        commit_comm_wait(a, rec, rec.comm);
        break;
      case PendingSimcall::Kind::kRecvWait:
        rec.comm = recv_async_impl(a, rec.mailbox);
        commit_comm_wait(a, rec, rec.comm);
        break;
      case PendingSimcall::Kind::kCommWait:
        commit_comm_wait(a, rec, rec.comm);
        break;

      case PendingSimcall::Kind::kSuspendSelf:
        // Runnable again the moment someone resume()s it; parked until then.
        a->suspended_ = true;
        a->state_ = Actor::State::kReady;
        break;

      case PendingSimcall::Kind::kSendAsync:
        rec.comm = send_async_impl(a, rec.mailbox, rec.payload, rec.bytes, rec.rate);
        rec.comm->detached = rec.detached;
        break;
      case PendingSimcall::Kind::kRecvAsync:
        rec.comm = recv_async_impl(a, rec.mailbox);
        break;
      case PendingSimcall::Kind::kCommTest:
        rec.flag_result = comm_test(rec.comm);
        break;
      case PendingSimcall::Kind::kCommProbe:
        rec.flag_result = comm_waiting(rec.mailbox);
        break;
      case PendingSimcall::Kind::kInternMailbox:
        rec.interned = intern_mailbox(*rec.name, a->shard_);
        break;
      case PendingSimcall::Kind::kSpawn:
        rec.spawned = spawn(*rec.name, rec.host, std::move(*rec.spawn_body), rec.spawn_daemon,
                            rec.spawn_auto_restart);
        break;
      case PendingSimcall::Kind::kKill:
        kill(rec.target);
        break;
      case PendingSimcall::Kind::kSuspendOther:
        suspend(rec.target);
        break;
      case PendingSimcall::Kind::kResume:
        resume(rec.target);
        break;
      case PendingSimcall::Kind::kHostState:
      case PendingSimcall::Kind::kLeaveHost:
      case PendingSimcall::Kind::kRejoinHost:
        // Resource changes are processed once the whole chain of quanta has
        // been committed (run_scheduling_round), not here.
        host_simcall(rec.kind, rec.host, rec.host_on);
        break;

      case PendingSimcall::Kind::kNone:
        assert(false && "parked without a record");
        break;
    }
  } catch (...) {
    rec.error = std::current_exception();
    if (!PendingSimcall::resumes_after(rec.kind))
      wake(a, WakeStatus::kOk);  // a parked kind must still be resumed to see it
  }
}

// -- simcalls ---------------------------------------------------------------

void Kernel::execute(double flops, double priority) {
  Actor* a = self();
  assert(a != nullptr && "execute() must be called from an actor");
  PendingSimcall rec;
  rec.kind = PendingSimcall::Kind::kExec;
  rec.flops = flops;
  rec.priority = priority;
  record_and_park(a, rec);
  check_status(a->wake_status_);
}

void Kernel::execute_parallel(const std::vector<int>& hosts, const std::vector<double>& flops,
                              const std::vector<std::vector<double>>& bytes) {
  Actor* a = self();
  assert(a != nullptr && "execute_parallel() must be called from an actor");
  PendingSimcall rec;
  rec.kind = PendingSimcall::Kind::kPtask;
  rec.ptask_hosts = &hosts;
  rec.ptask_flops = &flops;
  rec.ptask_bytes = &bytes;
  record_and_park(a, rec);
  check_status(a->wake_status_);
}

void Kernel::sleep_for(double duration) {
  Actor* a = self();
  assert(a != nullptr && "sleep_for() must be called from an actor");
  if (duration <= 0) {
    yield_now();
    return;
  }
  PendingSimcall rec;
  rec.kind = PendingSimcall::Kind::kSleep;
  rec.duration = duration;
  record_and_park(a, rec);
  check_status(a->wake_status_);
}

void Kernel::yield_now() {
  Actor* a = self();
  assert(a != nullptr);
  // The requeue touches the shard's own deque, but the epilogue does it so
  // the ready order does not depend on lane interleaving.
  PendingSimcall rec;
  rec.kind = PendingSimcall::Kind::kYield;
  record_and_park(a, rec);
}

void Kernel::exit_self() {
  assert(self() != nullptr);
  throw ForcedExit{};
}

// -- mailboxes & communications -------------------------------------------------

MailboxId Kernel::mailbox_by_name(const std::string& name) {
  Actor* a = self();
  if (a == nullptr)
    return intern_mailbox(name, 0);
  // The id map is only mutated serially, so quantum-time lookups are
  // race-free; a miss defers the insertion to the epilogue.
  auto it = mailbox_ids_.find(name);
  if (it != mailbox_ids_.end())
    return it->second;
  PendingSimcall rec;
  rec.kind = PendingSimcall::Kind::kInternMailbox;
  rec.name = &name;
  record_and_park(a, rec);
  return rec.interned;
}

MailboxId Kernel::intern_mailbox(const std::string& name, std::int32_t home) {
  auto [it, inserted] = mailbox_ids_.try_emplace(name, MailboxId{0});
  if (inserted) {
    it->second = static_cast<MailboxId>(mailboxes_.size());
    mailboxes_.emplace_back();
    mailboxes_.back().home = home;
    mailbox_names_.push_back(name);
  }
  return it->second;
}

CommPtr Kernel::send_async(MailboxId mb, void* payload, double bytes, double rate) {
  Actor* a = self();
  assert(a != nullptr && "send must be called from an actor");
  if (mailbox_ref(mb).home == a->shard_)
    return send_async_impl(a, mb, payload, bytes, rate);
  PendingSimcall rec;
  rec.kind = PendingSimcall::Kind::kSendAsync;
  rec.mailbox = mb;
  rec.payload = payload;
  rec.bytes = bytes;
  rec.rate = rate;
  record_and_park(a, rec);
  return rec.comm;
}

CommPtr Kernel::send_async_impl(Actor* a, MailboxId mb, void* payload, double bytes, double rate) {
  Mailbox& box = mailbox_ref(mb);
  if (drop_orphans(box.queued_recvs)) {
    CommPtr comm = box.queued_recvs.front();
    box.queued_recvs.pop_front();
    comm->sender_slot = a->slot_;
    comm->sender_id = a->id_;
    comm->src_host = a->host_;
    comm->payload = payload;
    comm->bytes = bytes;
    comm->rate = rate;
    if (self() != nullptr) {
      // Quanta never touch the engine: park the match until the maestro
      // replays the quantum's pending starts (lists-local rule, kernel.hpp).
      comm->state = Comm::State::kMatched;
      a->phase_starts_->push_back(comm);
    } else {
      start_comm(comm);
    }
    return comm;
  }
  CommPtr comm = make_comm(a);
  comm->mailbox = mb;
  comm->state = Comm::State::kQueuedSend;
  comm->sender_slot = a->slot_;
  comm->sender_id = a->id_;
  comm->src_host = a->host_;
  comm->payload = payload;
  comm->bytes = bytes;
  comm->rate = rate;
  box.queued_sends.push_back(comm);
  return comm;
}

CommPtr Kernel::recv_async(MailboxId mb) {
  Actor* a = self();
  assert(a != nullptr && "recv must be called from an actor");
  if (mailbox_ref(mb).home == a->shard_)
    return recv_async_impl(a, mb);
  PendingSimcall rec;
  rec.kind = PendingSimcall::Kind::kRecvAsync;
  rec.mailbox = mb;
  record_and_park(a, rec);
  return rec.comm;
}

CommPtr Kernel::recv_async_impl(Actor* a, MailboxId mb) {
  Mailbox& box = mailbox_ref(mb);
  if (drop_orphans(box.queued_sends)) {
    CommPtr comm = box.queued_sends.front();
    box.queued_sends.pop_front();
    comm->receiver_slot = a->slot_;
    comm->receiver_id = a->id_;
    comm->dst_host = a->host_;
    if (self() != nullptr) {
      comm->state = Comm::State::kMatched;
      a->phase_starts_->push_back(comm);
    } else {
      start_comm(comm);
    }
    return comm;
  }
  CommPtr comm = make_comm(a);
  comm->mailbox = mb;
  comm->state = Comm::State::kQueuedRecv;
  comm->receiver_slot = a->slot_;
  comm->receiver_id = a->id_;
  comm->dst_host = a->host_;
  box.queued_recvs.push_back(comm);
  return comm;
}

bool Kernel::drop_orphans(std::deque<CommPtr>& q) {
  while (!q.empty()) {
    Comm& c = *q.front();
    const bool live = c.state == Comm::State::kQueuedRecv
                          ? slot_owner_[c.receiver_slot] == c.receiver_id
                          : c.detached || slot_owner_[c.sender_slot] == c.sender_id;
    if (live)
      return true;
    c.state = Comm::State::kFinished;
    c.result = WakeStatus::kCanceled;
    q.pop_front();
  }
  return false;
}

void Kernel::start_comm(const CommPtr& comm) {
  comm->state = Comm::State::kStarted;
  // By-value host ids: a detached sender may be long dead by the time its
  // queued comm finds a receiver.
  comm->action = engine_.comm_start(comm->src_host, comm->dst_host, comm->bytes, comm->rate);
  inflight_.emplace(comm->action.get(), comm);
}

void Kernel::finish_comm(const CommPtr& comm, WakeStatus result) {
  comm->state = Comm::State::kFinished;
  comm->result = result;
  // Identity guards: wake each party only while it is still blocked on this
  // very communication (a straggler event must never wake an actor that has
  // meanwhile blocked on something else). A waiting party is, by the
  // endpoint lifetime invariant (comm.hpp), necessarily alive.
  if (comm->receiver_waiting && slot(comm->receiver_slot)->blocked_comm_ == comm)
    wake(slot(comm->receiver_slot), result);
  if (comm->sender_waiting && slot(comm->sender_slot)->blocked_comm_ == comm)
    wake(slot(comm->sender_slot), result);
}

void* Kernel::comm_wait(const CommPtr& comm, double timeout) {
  Actor* a = self();
  assert(a != nullptr);
  // Even a home-shard comm defers the wait: its state is flipped by the
  // serial epilogue only.
  PendingSimcall rec;
  rec.kind = PendingSimcall::Kind::kCommWait;
  rec.comm = comm;
  rec.timeout = timeout;
  record_and_park(a, rec);
  if (comm->sender_id == a->id_)
    comm->sender_waiting = false;
  else
    comm->receiver_waiting = false;
  check_status(a->wake_status_);
  return comm->payload;
}

void Kernel::send(MailboxId mb, void* payload, double bytes, double timeout, double rate) {
  Actor* a = self();
  assert(a != nullptr && "send must be called from an actor");
  if (mailbox_ref(mb).home == a->shard_) {
    comm_wait(send_async(mb, payload, bytes, rate), timeout);
    return;
  }
  // Fused enqueue+wait: one park instead of an async record followed by a
  // second park in comm_wait.
  PendingSimcall rec;
  rec.kind = PendingSimcall::Kind::kSendWait;
  rec.mailbox = mb;
  rec.payload = payload;
  rec.bytes = bytes;
  rec.rate = rate;
  rec.timeout = timeout;
  record_and_park(a, rec);
  if (rec.comm)
    rec.comm->sender_waiting = false;
  check_status(a->wake_status_);
}

void Kernel::send_detached(MailboxId mb, void* payload, double bytes, double rate) {
  Actor* a = self();
  assert(a != nullptr && "send_detached must be called from an actor");
  if (mailbox_ref(mb).home == a->shard_) {
    send_async_impl(a, mb, payload, bytes, rate)->detached = true;
    return;
  }
  PendingSimcall rec;
  rec.kind = PendingSimcall::Kind::kSendAsync;
  rec.mailbox = mb;
  rec.payload = payload;
  rec.bytes = bytes;
  rec.rate = rate;
  rec.detached = true;
  record_and_park(a, rec);
}

void* Kernel::recv(MailboxId mb, double timeout, ActorId* source) {
  Actor* a = self();
  assert(a != nullptr && "recv must be called from an actor");
  if (mailbox_ref(mb).home == a->shard_) {
    CommPtr comm = recv_async(mb);
    void* payload = comm_wait(comm, timeout);
    if (source != nullptr)
      *source = comm->sender_id;
    return payload;
  }
  PendingSimcall rec;
  rec.kind = PendingSimcall::Kind::kRecvWait;
  rec.mailbox = mb;
  rec.timeout = timeout;
  record_and_park(a, rec);
  if (rec.comm)
    rec.comm->receiver_waiting = false;
  check_status(a->wake_status_);
  if (source != nullptr)
    *source = rec.comm->sender_id;
  return rec.comm->payload;
}

bool Kernel::comm_waiting(MailboxId mb) {
  Actor* a = self();
  if (a != nullptr && mailbox_ref(mb).home != a->shard_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kCommProbe;
    rec.mailbox = mb;
    record_and_park(a, rec);
    return rec.flag_result;
  }
  return drop_orphans(mailbox_ref(mb).queued_sends);
}

bool Kernel::comm_test(const CommPtr& comm) {
  Actor* a = self();
  if (a != nullptr && (comm->mailbox == kNoMailbox || mailbox_ref(comm->mailbox).home != a->shard_)) {
    // A foreign-shard comm may be getting matched by its home lane right
    // now; only the serial epilogue can read its state safely.
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kCommTest;
    rec.comm = comm;
    record_and_park(a, rec);
    return rec.flag_result;
  }
  return comm->state == Comm::State::kFinished;
}

// -- event handling -----------------------------------------------------------

void Kernel::handle_action_event(const core::ActionEvent& ev) {
  const core::Action* act = ev.action.get();
  switch (act->kind()) {
    case core::ActionKind::kExec:
    case core::ActionKind::kSleep:
    case core::ActionKind::kPtask: {
      Actor* a = static_cast<Actor*>(act->user_data);
      // Identity guard: only wake the actor while it still waits on this
      // exact action (stale cancel events must not leak a spurious kOk).
      // user_data is nulled whenever an actor detaches from an action, so a
      // straggler event can never reach a reaped (and possibly reused) slot.
      if (a != nullptr && a->blocked_action_.get() == act)
        wake(a, ev.failed ? WakeStatus::kHostFailure : WakeStatus::kOk);
      break;
    }
    case core::ActionKind::kComm: {
      auto it = inflight_.find(act);
      if (it == inflight_.end())
        return;
      CommPtr comm = it->second;
      inflight_.erase(it);
      if (comm->state == Comm::State::kFinished)
        return;  // already resolved by a timeout or a kill
      finish_comm(comm, ev.failed ? WakeStatus::kNetworkFailure : WakeStatus::kOk);
      break;
    }
  }
}

void Kernel::fire_due_timers() {
  while (!timers_.empty() && timers_.top().time <= engine_.now() + 1e-12) {
    const Timer t = timers_.top();
    timers_.pop();
    auto it = id_to_slot_.find(t.actor);
    if (it == id_to_slot_.end())
      continue;  // actor reaped
    Actor* a = slot(it->second);
    if (a->state_ != Actor::State::kBlocked || t.gen != a->timer_gen_)
      continue;  // stale timer
    if (a->blocked_comm_ != nullptr) {
      CommPtr comm = a->blocked_comm_;
      if (comm->state == Comm::State::kQueuedSend || comm->state == Comm::State::kQueuedRecv) {
        remove_from_mailbox(comm);
        comm->state = Comm::State::kFinished;
        comm->result = WakeStatus::kTimeout;
        wake(a, WakeStatus::kTimeout);
      } else if (comm->state == Comm::State::kStarted) {
        comm->state = Comm::State::kFinished;
        comm->result = WakeStatus::kCanceled;
        wake(a, WakeStatus::kTimeout);
        fail_waiting_peer(*comm, a);
        if (comm->action)
          comm->action->cancel();
      } else {
        wake(a, WakeStatus::kTimeout);
      }
    } else if (a->blocked_action_ != nullptr) {
      auto action = a->blocked_action_;
      wake(a, WakeStatus::kTimeout);
      action->cancel();
    } else {
      wake(a, WakeStatus::kTimeout);
    }
  }
}

void Kernel::remove_from_mailbox(const CommPtr& comm) {
  if (comm->mailbox == kNoMailbox)
    return;
  Mailbox& box = mailbox_ref(comm->mailbox);
  auto scrub = [&](std::deque<CommPtr>& q) {
    q.erase(std::remove(q.begin(), q.end(), comm), q.end());
  };
  scrub(box.queued_sends);
  scrub(box.queued_recvs);
}

void Kernel::fail_waiting_peer(const Comm& comm, const Actor* a) {
  if (comm.sender_id == a->id_ ? comm.receiver_waiting : comm.sender_waiting)
    wake(slot(comm.sender_id == a->id_ ? comm.receiver_slot : comm.sender_slot),
         WakeStatus::kNetworkFailure);
}

void Kernel::detach_from_comm(Actor* a) {
  if (a->blocked_comm_ == nullptr)
    return;
  CommPtr comm = a->blocked_comm_;
  if (comm->state == Comm::State::kQueuedSend || comm->state == Comm::State::kQueuedRecv) {
    remove_from_mailbox(comm);
    comm->state = Comm::State::kFinished;
    comm->result = WakeStatus::kCanceled;
  } else if (comm->state == Comm::State::kMatched) {
    // Matched by a quantum but its engine transfer was never started (the
    // party died before the pending start replayed). There is no action to
    // cancel; just fail the peer if it is already waiting.
    comm->state = Comm::State::kFinished;
    comm->result = WakeStatus::kCanceled;
    fail_waiting_peer(*comm, a);
  } else if (comm->state == Comm::State::kStarted) {
    comm->state = Comm::State::kFinished;
    comm->result = WakeStatus::kCanceled;
    fail_waiting_peer(*comm, a);
    if (comm->action)
      comm->action->cancel();
  }
  a->blocked_comm_.reset();
}

// -- actor management -----------------------------------------------------------

void Kernel::suspend(ActorId id) {
  if (Actor* caller = self()) {
    // Self-suspend parks right here; the commit flips the flag and leaves
    // the actor out of the queues until someone calls resume(). Suspending
    // another actor reads its state, which only the serial commit may do.
    PendingSimcall rec;
    rec.kind = id == caller->id_ ? PendingSimcall::Kind::kSuspendSelf
                                 : PendingSimcall::Kind::kSuspendOther;
    rec.target = id;
    record_and_park(caller, rec);
    return;
  }
  Actor* a = actor(id);
  if (a == nullptr || !a->alive() || a->suspended_)
    return;
  a->suspended_ = true;
  if (a->blocked_action_)
    a->blocked_action_->suspend();
  if (a->blocked_comm_ && a->blocked_comm_->state == Comm::State::kStarted && a->blocked_comm_->action)
    a->blocked_comm_->action->suspend();
}

void Kernel::resume(ActorId id) {
  if (Actor* caller = self()) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kResume;
    rec.target = id;
    record_and_park(caller, rec);
    return;
  }
  Actor* a = actor(id);
  if (a == nullptr || !a->alive() || !a->suspended_)
    return;
  a->suspended_ = false;
  if (a->blocked_action_)
    a->blocked_action_->resume();
  if (a->blocked_comm_ && a->blocked_comm_->state == Comm::State::kStarted && a->blocked_comm_->action)
    a->blocked_comm_->action->resume();
  schedule(a);
}

void Kernel::kill(ActorId id) {
  if (Actor* caller = self()) {
    if (id == caller->id_) {
      caller->killed_by_failure_ = false;
      throw ForcedExit{};
    }
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kKill;
    rec.target = id;
    record_and_park(caller, rec);
    return;
  }
  if (Actor* a = actor(id))
    kill_internal(a, false);
}

void Kernel::kill_internal(Actor* a, bool by_failure) {
  // A kill reaching an actor whose unwind is already under way (its own
  // cleanup or an exit callback killing it again) is a no-op: that unwind
  // finishes it.
  if (!a->alive() || a->context_->kill_requested())
    return;
  a->killed_by_failure_ = by_failure;
  detach_from_comm(a);
  if (a->blocked_action_) {
    auto action = a->blocked_action_;
    action->user_data = nullptr;
    a->blocked_action_.reset();
    action->cancel();
  }
  a->pending_ = nullptr;
  if (a->context_->finished()) {
    // The body already ran to completion in a quantum and its end
    // handling is waiting for the epilogue commit; resuming a finished
    // context would never come back. Finish it here instead.
    handle_actor_end(a);
    return;
  }
  a->context_->request_kill();
  // One quantum unwinds the whole body: it cannot park again (see
  // record_and_park). Home-mailbox matches made by its cleanup still start.
  RanActor r;
  run_quantum(a, r);
  assert(r.finished);
  start_matched(r);
  handle_actor_end(a);  // may reap `a`
}

bool Kernel::is_alive(ActorId id) const {
  auto it = id_to_slot_.find(id);
  return it != id_to_slot_.end() && slot(it->second)->alive();
}

Actor* Kernel::actor(ActorId id) {
  auto it = id_to_slot_.find(id);
  return it == id_to_slot_.end() ? nullptr : slot(it->second);
}

std::vector<ActorId> Kernel::live_actors() const {
  std::vector<ActorId> out;
  out.reserve(live_count_);
  for (const auto& [id, s] : id_to_slot_)
    if (slot(s)->alive())
      out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

// -- platform control -------------------------------------------------------------

void Kernel::host_off(int host) { host_simcall(PendingSimcall::Kind::kHostState, host, false); }

void Kernel::host_on(int host) { host_simcall(PendingSimcall::Kind::kHostState, host, true); }

void Kernel::host_simcall(PendingSimcall::Kind kind, int host, bool on) {
  if (Actor* a = self()) {
    PendingSimcall rec;
    rec.kind = kind;
    rec.host = host;
    rec.host_on = on;
    record_and_park(a, rec);
    return;
  }
  if (kind == PendingSimcall::Kind::kHostState)
    engine_.set_host_state(host, on);
  else if (kind == PendingSimcall::Kind::kLeaveHost)
    engine_.leave_host(host);
  else
    engine_.rejoin_host(host);
}

// -- platform control (dynamic membership) --------------------------------------

int Kernel::join_host(platform::ZoneId zone, const std::string& name, double speed_flops) {
  const int h = engine_.join_host(zone, name, speed_flops);
  while (host_live_head_.size() < engine_.platform().host_count())
    host_live_head_.push_back(-1);
  return h;
}

int Kernel::join_host(const platform::HostSpec& spec, platform::NodeId attach,
                      const platform::LinkSpec& uplink) {
  const int h = engine_.join_host(spec, attach, uplink);
  while (host_live_head_.size() < engine_.platform().host_count())
    host_live_head_.push_back(-1);
  return h;
}

void Kernel::leave_host(int host) { host_simcall(PendingSimcall::Kind::kLeaveHost, host, false); }

void Kernel::rejoin_host(int host) { host_simcall(PendingSimcall::Kind::kRejoinHost, host, false); }

void Kernel::process_resource_changes() {
  while (!host_changes_.empty()) {
    auto [host, on] = host_changes_.front();
    host_changes_.erase(host_changes_.begin());
    if (!on) {
      // Kill every actor living on the failed host. The per-host live list
      // makes this O(residents); collected as ids (a victim's exit callback
      // may kill — and reap — another victim) and sorted for a deterministic
      // kill order.
      std::vector<ActorId> victims;
      for (std::int32_t s = host_live_head_[static_cast<size_t>(host)]; s != -1;
           s = slot(static_cast<std::uint32_t>(s))->host_next_)
        victims.push_back(slot(static_cast<std::uint32_t>(s))->id_);
      std::sort(victims.begin(), victims.end());
      for (ActorId id : victims) {
        Actor* a = actor(id);
        if (a == nullptr || !a->alive())
          continue;
        SG_VERB(kernel, "host %s failed: killing actor '%s'",
                engine_.platform().host(host).name.c_str(), a->name_.c_str());
        kill_internal(a, true);
      }
    } else {
      // Respawn auto-restart actors that died with this host.
      std::vector<RestartSpec> todo;
      auto it = pending_restarts_.begin();
      while (it != pending_restarts_.end()) {
        if (it->host == host) {
          todo.push_back(std::move(*it));
          it = pending_restarts_.erase(it);
        } else {
          ++it;
        }
      }
      for (const auto& spec : todo) {
        SG_VERB(kernel, "host %s is back: restarting actor '%s'",
                engine_.platform().host(host).name.c_str(), spec.name.c_str());
        spawn(spec.name, spec.host, spec.body, spec.daemon, /*auto_restart=*/true);
      }
    }
  }
}

}  // namespace sg::kernel
