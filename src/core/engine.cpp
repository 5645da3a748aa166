#include "core/engine.hpp"

#include <algorithm>
#include <cmath>

#include "core/workers.hpp"
#include "xbt/exception.hpp"
#include "xbt/log.hpp"
#include "xbt/str.hpp"

SG_LOG_NEW_CATEGORY(surf, "SURF simulation engine");

namespace sg::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTimeEps = 1e-12;

/// Time tolerance at date t: completions planned within this window of the
/// step target fire now. Relative so that `target - now_` cancellation noise
/// (~DBL_EPSILON * now) can never strand an action with an un-completable
/// remainder.
inline double time_eps_at(double t) { return 1e-9 * std::max(1.0, std::abs(t)); }

/// Default display names, indexed by ActionKind. Actions created with these
/// names (the overwhelming majority) occupy no slot in the name side table.
const std::string kDefaultNames[] = {"exec", "comm", "ptask", "sleep"};

/// "host X departed at t=…" for activity starts on a host that left the
/// platform — distinct from the transient "is down" of a state flap.
[[noreturn]] void throw_host_departed(const char* what, const platform::Platform& pf, int host) {
  throw xbt::HostFailureException(std::string(what) + ": host " + pf.host(host).name +
                                  " departed at t=" + xbt::format("%g", pf.host_departed_at(host)) +
                                  " (rejoin_host() restores it)");
}
}  // namespace

void declare_engine_config() {
  config::declare(kCfgTcpGamma, 65536.0,
                  "TCP window size (bytes); flow rate is capped at gamma / (2 * route latency)");
  config::declare(kCfgBandwidthFactor, 1460.0 / 1500.0,
                  "fraction of nominal link bandwidth usable as goodput (TCP/IP header overhead)");
  config::declare(kCfgLoopbackBw, 1e10, "intra-host communication bandwidth, B/s");
  config::declare(kCfgLoopbackLat, 1e-7, "intra-host communication latency, s");
  config::declare(kCfgSharding,
                  true,
                  "partition the solver and event heaps by platform zone (off: one global shard); "
                  "results are identical either way");
  config::declare(kCfgKillTransitComms,
                  false,
                  "a host's death also fails every comm it is an endpoint of (L07-style); "
                  "off keeps CM02 semantics where transit comms outlive their endpoints");
  config::declare(kCfgThreads, 1, 1, 256,
                  "worker threads for per-shard stepping, clamped to the shard count "
                  "(1 = serial; results are identical at any value)",
                  "SG_THREADS");
  config::declare(kCfgParallelActors, false,
                  "resume actor contexts on the engine/threads worker lanes (one lane "
                  "drains the run-queue shards it owns); off = serial scheduling on the "
                  "maestro; the observable schedule is identical either way",
                  "SG_PARALLEL_ACTORS");
  config::declare(kCfgProfile, false,
                  "collect per-phase wall times and per-lane fan-out occupancy in "
                  "run_until() (read through Engine::phase_stats()); small constant "
                  "overhead per round, no effect on results",
                  "SG_PROFILE");
}

/// Per-shard state co-owned by the engine and (via the allocator copy in
/// every control block) by each of that shard's actions: the LIFO block
/// recycler and the lazily-populated name side table. Living here rather
/// than in the Engine keeps both safe for ActionPtrs that outlive their
/// engine; having one per shard lets every worker lane allocate and free
/// only through its own shards' pools, lock-free.
///
/// The recycler serves the single block size allocate_shared<ConcreteAction>
/// requests (action + control block fused). Steady-state churn re-uses the
/// block freed by the previous event — still cache-hot — instead of paying a
/// malloc/free round-trip and pulling cold lines per action.
struct ActionBlockPool {
  /// Cap on retained free blocks (~10 MB at typical block sizes): beyond a
  /// concurrency spike of this size, freed blocks go back to the allocator
  /// instead of pinning peak memory for the rest of the run.
  static constexpr size_t kMaxFreeBlocks = 64 * 1024;
  std::vector<void*> free_blocks;
  size_t block_bytes = 0;  ///< learned from the first allocation
  /// Custom display names (see Engine::set_action_name); actions created
  /// with their kind's default name have no entry.
  std::unordered_map<const Action*, std::string> names;

  ~ActionBlockPool() {
    for (void* p : free_blocks)
      ::operator delete(p);
  }
  void* allocate(size_t bytes) {
    if (bytes == block_bytes && !free_blocks.empty()) {
      void* p = free_blocks.back();
      free_blocks.pop_back();
      return p;
    }
    if (block_bytes == 0)
      block_bytes = bytes;
    return ::operator new(bytes);
  }
  void deallocate(void* p, size_t bytes) {
    if (bytes == block_bytes && free_blocks.size() < kMaxFreeBlocks) {
      free_blocks.push_back(p);
      return;
    }
    ::operator delete(p);
  }
};

// ---------------------------------------------------------------------------
// Action methods (need Engine internals)
// ---------------------------------------------------------------------------

Action::Action(Engine* engine, ActionKind kind, double total, double priority)
    : engine_(engine),
      remaining_(total),
      kind_(kind),
      priority_(priority),
      total_(total),
      start_time_(engine->now()) {}

Action::~Action() {
  // The name side table lives in the block pool, which this action's
  // control block co-owns (the allocator stored there holds a shared_ptr
  // and is destroyed only after this destructor runs) — so the erase is
  // safe even for an ActionPtr that outlives its engine.
  if (has_name_)
    pool_->names.erase(this);
}

const std::string& Action::name() const {
  if (has_name_) {
    auto it = pool_->names.find(this);
    if (it != pool_->names.end())
      return it->second;
  }
  return kDefaultNames[static_cast<size_t>(kind_)];
}

void Action::suspend() {
  if (state_ != ActionState::kRunning)
    return;
  engine_->sync_progress(*this);  // freeze progress at the suspension date
  state_ = ActionState::kSuspended;
  if (var_ >= 0 && !in_latency_phase_)
    engine_->sys_.set_weight(var_, 0.0);
  if (kind_ == ActionKind::kSleep)
    rate_ = 0.0;
  engine_->orphan_heap_entry(*this);  // completion date is now +inf
  engine_->notify(*this, ActionState::kRunning, ActionState::kSuspended);
}

void Action::resume() {
  if (state_ != ActionState::kSuspended)
    return;
  engine_->sync_progress(*this);  // restart the progress clock at now
  state_ = ActionState::kRunning;
  if (var_ >= 0 && !in_latency_phase_)
    engine_->sys_.set_weight(var_, priority_);
  if (kind_ == ActionKind::kSleep)
    rate_ = 1.0;
  // rate_ still holds the pre-suspension allocation; if the solver zeroed it
  // meanwhile, the post-resume solve will report the change and reschedule.
  engine_->schedule_completion(
      engine_->shards_[static_cast<size_t>(shard_)].running[run_idx_]);
  engine_->notify(*this, ActionState::kSuspended, ActionState::kRunning);
}

void Action::cancel() {
  if (state_ != ActionState::kRunning && state_ != ActionState::kSuspended)
    return;
  engine_->finish_action(Engine::Delivery{-1, &engine_->pending_, nullptr},
                         engine_->shards_[static_cast<size_t>(shard_)].running[run_idx_],
                         ActionState::kCanceled);
}

double Action::remaining() const {
  if (state_ != ActionState::kRunning || in_latency_phase_ || rate_ <= 0)
    return remaining_;
  return std::max(0.0, remaining_ - rate_ * (engine_->now_ - last_update_));
}

double Action::latency_remaining() const {
  if (state_ != ActionState::kRunning || !in_latency_phase_)
    return latency_remaining_;
  return std::max(0.0, latency_remaining_ - (engine_->now_ - last_update_));
}

void Action::set_priority(double priority) {
  priority_ = priority;
  if (var_ >= 0 && !in_latency_phase_ && state_ == ActionState::kRunning)
    engine_->sys_.set_weight(var_, priority);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {
/// Shell that exposes Action's protected constructor so allocate_shared can
/// fuse the control block and the action into one pooled block (one
/// allocation per action, and the refcount lands next to the hot fields).
struct ConcreteAction : Action {
  ConcreteAction(Engine* engine, ActionKind kind, double total, double priority)
      : Action(engine, kind, total, priority) {}
};

/// Routes allocate_shared through a shard's block pool. Holds the pool by
/// shared_ptr: the copy stored in each control block keeps the pool alive
/// until the last action is gone.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  std::shared_ptr<ActionBlockPool> pool;

  explicit PoolAllocator(std::shared_ptr<ActionBlockPool> p) : pool(std::move(p)) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : pool(other.pool) {}

  T* allocate(size_t n) { return static_cast<T*>(pool->allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) { pool->deallocate(p, n * sizeof(T)); }
  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const {
    return pool == other.pool;
  }
};

ActionPtr make_action(const std::shared_ptr<ActionBlockPool>& pool, Engine* engine, ActionKind kind,
                      double total, double priority) {
  return std::allocate_shared<ConcreteAction>(PoolAllocator<ConcreteAction>(pool), engine, kind, total,
                                              priority);
}
}  // namespace

void Engine::set_action_name(Action* action, std::string_view name) {
  if (name.empty() || name == kDefaultNames[static_cast<size_t>(action->kind_)])
    return;
  // The name lives in the action's shard's pool (shard_ must be set first).
  ActionBlockPool& pool = *shards_[static_cast<size_t>(action->shard_)].pool;
  pool.names[action] = std::string(name);
  action->pool_ = &pool;
  action->has_name_ = true;
}

Engine::Engine(platform::Platform platform) : platform_(std::move(platform)) {
  if (!platform_.sealed())
    platform_.seal();
  declare_engine_config();
  tcp_gamma_ = config::get(kCfgTcpGamma);
  bandwidth_factor_ = config::get(kCfgBandwidthFactor);
  loopback_bw_ = config::get(kCfgLoopbackBw);
  loopback_lat_ = config::get(kCfgLoopbackLat);
  kill_transit_comms_ = config::get(kCfgKillTransitComms);

  // Size the solver shards and event heaps from the platform's shard map
  // (zones + backbone); engine/sharding=0 collapses everything into one
  // global shard — bit-for-bit the pre-sharding behaviour.
  const platform::ShardMap& smap = platform_.shard_map();
  const bool sharding = config::get(kCfgSharding);
  const int n_shards = sharding ? smap.shard_count : 1;
  sys_.init_shards(n_shards);
  shards_.resize(static_cast<size_t>(n_shards));
  for (ShardState& ss : shards_)
    ss.pool = std::make_shared<ActionBlockPool>();

  // Worker lanes: more threads than shards would idle, so clamp. The pool is
  // only spun up when it can actually be used.
  const long threads = config::get(kCfgThreads);
  lanes_ = static_cast<int>(std::clamp<long>(threads, 1, n_shards));
  if (lanes_ > 1)
    workers_ = std::make_unique<ShardWorkers>(lanes_);
  lane_scratch_ = std::vector<LaneScratch>(static_cast<size_t>(lanes_));
  heap_tree_.reset(2 * n_shards);
  trace_tree_.reset(n_shards);
  profile_ = config::get(kCfgProfile);
  if (profile_)
    probe_ = std::make_unique<PhaseProbe>(lanes_);

  hosts_.resize(platform_.host_count());
  for (size_t h = 0; h < platform_.host_count(); ++h) {
    const auto& spec = platform_.host(static_cast<int>(h));
    HostRes& res = hosts_[h];
    if (!spec.availability.empty())
      res.scale = spec.availability.value_at(0.0);
    if (!spec.state.empty())
      res.on = spec.state.value_at(0.0) > 0.5;
    res.shard = sharding ? smap.host_shard[h] : 0;
    res.cnst = sys_.new_constraint_in(res.shard, res.on ? spec.speed_flops * res.scale : 0.0,
                                      /*shared=*/true);
  }
  links_.resize(platform_.link_count());
  for (size_t l = 0; l < platform_.link_count(); ++l) {
    const auto& spec = platform_.link(static_cast<platform::LinkId>(l));
    LinkRes& res = links_[l];
    if (!spec.availability.empty())
      res.scale = spec.availability.value_at(0.0);
    if (!spec.state.empty())
      res.on = spec.state.value_at(0.0) > 0.5;
    res.shard = sharding ? smap.link_shard[l] : 0;
    res.cnst = sys_.new_constraint_in(res.shard,
                                      res.on ? spec.bandwidth_Bps * res.scale * bandwidth_factor_ : 0.0,
                                      spec.policy == platform::SharingPolicy::kShared);
  }
  schedule_trace_events();
}

Engine::~Engine() = default;

std::int32_t Engine::trace_shard(TraceEvent::Kind kind, int index) const {
  if (kind == TraceEvent::Kind::kHostAvail || kind == TraceEvent::Kind::kHostState)
    return hosts_[static_cast<size_t>(index)].shard;
  return links_[static_cast<size_t>(index)].shard;
}

void Engine::schedule_trace_events() {
  for (size_t h = 0; h < platform_.host_count(); ++h) {
    const auto& spec = platform_.host(static_cast<int>(h));
    if (!spec.availability.empty())
      schedule_next(spec.availability, TraceEvent::Kind::kHostAvail, static_cast<int>(h), 0.0);
    if (!spec.state.empty())
      schedule_next(spec.state, TraceEvent::Kind::kHostState, static_cast<int>(h), 0.0);
  }
  for (size_t l = 0; l < platform_.link_count(); ++l) {
    const auto& spec = platform_.link(static_cast<platform::LinkId>(l));
    if (!spec.availability.empty())
      schedule_next(spec.availability, TraceEvent::Kind::kLinkAvail, static_cast<int>(l), 0.0);
    if (!spec.state.empty())
      schedule_next(spec.state, TraceEvent::Kind::kLinkState, static_cast<int>(l), 0.0);
  }
}

void Engine::schedule_next(const trace::Trace& trace, TraceEvent::Kind kind, int index, double after) {
  auto next = trace.next_event_after(after);
  if (next) {
    const std::int32_t shard = trace_shard(kind, index);
    shards_[static_cast<size_t>(shard)].traces.push(
        TraceEvent{next->time, kind, index, next->value});
    mark_heads_dirty(shard);
  }
}

double Engine::next_trace_time() {
  // trace_tree_ leaves hold the RAW next trace dates; clamping the winner to
  // now() afterwards is equivalent to clamping every leaf (max-of-min
  // commutes with a shared bound) and keeps the leaves update-stable.
  sync_head_trees();
  return std::max(trace_tree_.min_key(), now_);
}

void Engine::mark_heads_dirty(int shard) {
  ShardState& ss = shards_[static_cast<size_t>(shard)];
  if (ss.heads_dirty)
    return;
  ss.heads_dirty = true;
  // Each shard is only ever touched by the maestro or by its canonical lane
  // (the advance fan-out buckets due shards by lane_of), so this append
  // never races: a lane writes only its own dirty list.
  lane_scratch_[static_cast<size_t>(ShardWorkers::lane_of(shard, lanes_))].dirty.push_back(shard);
}

void Engine::sync_head_trees() {
  // Leaf values are pure functions of the shards' current heads, so the
  // refresh order (lane-major here) cannot affect the trees' final state.
  for (LaneScratch& ls : lane_scratch_) {
    for (const std::int32_t shard : ls.dirty) {
      ShardState& ss = shards_[static_cast<size_t>(shard)];
      ss.heads_dirty = false;
      heap_tree_.update(2 * shard, ss.events.latency.head_lb);
      heap_tree_.update(2 * shard + 1, ss.events.completion.head_lb);
      trace_tree_.update(shard, ss.traces.empty() ? kInf : ss.traces.top().time);
    }
    ls.dirty.clear();
  }
}

ActionPtr Engine::exec_start(int host, double flops, double priority, std::string_view name) {
  HostRes& res = hosts_.at(static_cast<size_t>(host));
  if (!res.on) {
    if (!platform_.host_present(host))
      throw_host_departed("exec_start", platform_, host);
    throw xbt::HostFailureException("exec_start: host " + platform_.host(host).name + " is down");
  }
  auto action = make_action(shards_[static_cast<size_t>(res.shard)].pool, this, ActionKind::kExec,
                            flops, priority);
  action->host_ = host;
  action->shard_ = res.shard;
  set_action_name(action.get(), name);  // before notify: observers read name()
  bind_var(action.get(), sys_.new_variable(priority));
  sys_.expand(res.cnst, action->var_, 1.0);
  add_running(action);
  if (action->remaining_ <= 0)
    schedule_completion(action);  // zero work: completes now even if starved
  notify(*action, ActionState::kRunning, ActionState::kRunning);
  SG_DEBUG(surf, "exec_start on %s: %.0f flops", platform_.host(host).name.c_str(), flops);
  return action;
}

ShardedMaxMin::CnstId Engine::loopback_constraint(int host) {
  HostRes& res = hosts_.at(static_cast<size_t>(host));
  if (res.loopback < 0)
    res.loopback = sys_.new_constraint_in(res.shard, res.on ? loopback_bw_ : 0.0, /*shared=*/true);
  return res.loopback;
}

ActionPtr Engine::comm_start(int src_host, int dst_host, double bytes, double rate_limit,
                             std::string_view name) {
  // Resolve the route (and the shard affinity that follows from it) before
  // allocating, so the action comes from its own shard's block pool.
  // Heap/solver affinity: intra-zone transfers stay in their zone's shard;
  // anything crossing a zone boundary lives with the backbone.
  const std::int32_t src_shard = hosts_.at(static_cast<size_t>(src_host)).shard;
  const std::int32_t dst_shard = hosts_.at(static_cast<size_t>(dst_host)).shard;
  const std::int32_t shard = src_shard == dst_shard ? src_shard : 0;

  double latency = 0.0;
  bool dead_route = false;
  platform::RouteView route;  // empty until resolved; consumed immediately
  if (src_host == dst_host) {
    latency = loopback_lat_;
    // The loopback is part of the host: it dies (and fails its comms) with it.
    if (!hosts_[static_cast<size_t>(src_host)].on)
      dead_route = true;
  } else if (!platform_.host_present(src_host) || !platform_.host_present(dst_host)) {
    // A departed endpoint has no route (route() would throw "departed at
    // t=…"): fail the comm gracefully so the sender can retry or give up.
    dead_route = true;
  } else {
    route = platform_.route(src_host, dst_host);
    latency = route.latency();
    for (platform::LinkId l : route)
      if (!links_[static_cast<size_t>(l)].on) {
        dead_route = true;
        break;
      }
  }

  auto action = make_action(shards_[static_cast<size_t>(shard)].pool, this, ActionKind::kComm,
                            bytes, 1.0);
  action->host_ = src_host;
  action->peer_host_ = dst_host;
  action->shard_ = shard;
  set_action_name(action.get(), name);  // before notify: observers read name()

  if (dead_route) {
    // The communication fails immediately; report it through the next round
    // so the kernel sees a normal failure event.
    action->state_ = ActionState::kFailed;
    action->finish_time_ = now_;
    pending_.push_back(ActionEvent{action, true});
    return action;
  }

  double bound = ShardedMaxMin::kNoBound;
  if (rate_limit > 0)
    bound = rate_limit;
  if (latency > 0 && src_host != dst_host) {
    const double tcp_cap = tcp_gamma_ / (2.0 * latency);
    bound = (bound < 0) ? tcp_cap : std::min(bound, tcp_cap);
  }

  bind_var(action.get(), sys_.new_variable(0.0, bound));  // weight 0 during latency phase
  if (src_host == dst_host) {
    sys_.expand(loopback_constraint(src_host), action->var_, 1.0);
  } else {
    for (platform::LinkId l : route)
      sys_.expand(links_[static_cast<size_t>(l)].cnst, action->var_, 1.0);
  }

  action->latency_remaining_ = latency;
  if (latency > 0) {
    action->in_latency_phase_ = true;
  } else {
    action->in_latency_phase_ = false;
    sys_.set_weight(action->var_, action->priority_);
  }

  add_running(action);
  if (kill_transit_comms_)
    endpoint_lists_add(action);
  if (action->in_latency_phase_ || action->remaining_ <= 0)
    schedule_completion(action);  // latency expiry (or zero bytes): date known now
  notify(*action, ActionState::kRunning, ActionState::kRunning);
  return action;
}

ActionPtr Engine::ptask_start(const std::vector<int>& hosts, const std::vector<double>& flops,
                              const std::vector<std::vector<double>>& bytes, std::string_view name) {
  if (hosts.empty() || flops.size() != hosts.size())
    throw xbt::InvalidArgument("ptask_start: hosts/flops size mismatch");
  if (!bytes.empty() && bytes.size() != hosts.size())
    throw xbt::InvalidArgument("ptask_start: bytes matrix must be n x n");
  for (int h : hosts)
    if (!hosts_.at(static_cast<size_t>(h)).on) {
      if (!platform_.host_present(h))
        throw_host_departed("ptask_start", platform_, h);
      throw xbt::HostFailureException("ptask_start: host is down");
    }

  std::int32_t shard = hosts_[static_cast<size_t>(hosts[0])].shard;
  for (int h : hosts)
    if (hosts_[static_cast<size_t>(h)].shard != shard) {
      shard = 0;  // spans zones: backbone affinity
      break;
    }

  // The action's "amount" is the normalized fraction of the whole task;
  // coefficient k on a resource means "rate v consumes k*v of the resource",
  // so at completion (integral of v = 1) exactly flops[i] / bytes[i][j] have
  // been consumed. This is SimGrid's L07 parallel-task model.
  auto action = make_action(shards_[static_cast<size_t>(shard)].pool, this, ActionKind::kPtask,
                            1.0, 1.0);
  action->shard_ = shard;
  set_action_name(action.get(), name);  // before notify: observers read name()
  bind_var(action.get(), sys_.new_variable(0.0));

  double latency = 0.0;
  for (size_t i = 0; i < hosts.size(); ++i) {
    if (flops[i] > 0)
      sys_.expand(hosts_[static_cast<size_t>(hosts[i])].cnst, action->var_, flops[i]);
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i].size() != hosts.size())
      throw xbt::InvalidArgument("ptask_start: bytes matrix must be n x n");
    for (size_t j = 0; j < bytes[i].size(); ++j) {
      if (i == j || bytes[i][j] <= 0)
        continue;
      const auto route = platform_.route(hosts[i], hosts[j]);
      latency = std::max(latency, route.latency());
      for (platform::LinkId l : route)
        sys_.expand(links_[static_cast<size_t>(l)].cnst, action->var_, bytes[i][j]);
    }
  }

  action->latency_remaining_ = latency;
  if (latency > 0) {
    action->in_latency_phase_ = true;
  } else {
    sys_.set_weight(action->var_, action->priority_);
  }
  add_running(action);
  if (action->in_latency_phase_)
    schedule_completion(action);
  notify(*action, ActionState::kRunning, ActionState::kRunning);
  return action;
}

ActionPtr Engine::sleep_start(int host, double duration, std::string_view name) {
  HostRes& res = hosts_.at(static_cast<size_t>(host));
  if (!res.on) {
    if (!platform_.host_present(host))
      throw_host_departed("sleep_start", platform_, host);
    throw xbt::HostFailureException("sleep_start: host is down");
  }
  auto action = make_action(shards_[static_cast<size_t>(res.shard)].pool, this, ActionKind::kSleep,
                            duration, 1.0);
  action->host_ = host;
  action->shard_ = res.shard;
  action->rate_ = 1.0;  // time passes at rate 1
  set_action_name(action.get(), name);  // before notify: observers read name()
  // Sleeps have no solver variable, so the arena cannot index them; the
  // per-host sleep list keeps host-failure sweeps O(affected).
  action->host_list_idx_ = static_cast<std::uint32_t>(res.sleeps.size());
  res.sleeps.push_back(action.get());
  add_running(action);
  schedule_completion(action);  // sleeps never change rate: date known now
  notify(*action, ActionState::kRunning, ActionState::kRunning);
  return action;
}

void Engine::bind_var(Action* action, ShardedMaxMin::VarId var) {
  action->var_ = var;
  if (action_of_var_.size() <= static_cast<size_t>(var))
    action_of_var_.resize(static_cast<size_t>(var) + 1, nullptr);
  action_of_var_[static_cast<size_t>(var)] = action;
}

void Engine::add_running(const ActionPtr& action) {
  action->last_update_ = now_;
  ShardState& ss = shards_[static_cast<size_t>(action->shard_)];
  if (!ss.free_slots.empty()) {
    const size_t idx = ss.free_slots.back();
    ss.free_slots.pop_back();
    action->run_idx_ = idx;
    ss.running[idx] = action;
  } else {
    action->run_idx_ = ss.running.size();
    ss.running.push_back(action);
  }
  ++ss.running_count;
}

size_t Engine::running_action_count() const {
  size_t n = 0;
  for (const ShardState& ss : shards_)
    n += ss.running_count;
  return n;
}

void Engine::sync_progress(Action& a) {
  if (a.state_ == ActionState::kRunning) {
    const double dt = now_ - a.last_update_;
    if (dt > 0) {
      if (a.in_latency_phase_)
        a.latency_remaining_ = std::max(0.0, a.latency_remaining_ - dt);
      else if (a.rate_ > 0)
        a.remaining_ = std::max(0.0, a.remaining_ - a.rate_ * dt);
    }
  }
  a.last_update_ = now_;
}

void Engine::EventHeap::push(double date, std::uint64_t stamp, ActionPtr action) {
  head_lb = std::min(head_lb, date);
  size_t hole = dates.size();
  dates.push_back(date);
  payloads.push_back(Payload{stamp, std::move(action)});
  // Sift up: the compare loop reads only the dense dates array.
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (dates[parent] <= dates[hole])
      break;
    std::swap(dates[parent], dates[hole]);
    std::swap(payloads[parent], payloads[hole]);
    hole = parent;
  }
}

void Engine::EventHeap::sift_down(size_t hole) {
  const size_t n = dates.size();
  while (true) {
    const size_t first_child = 4 * hole + 1;
    if (first_child >= n)
      break;
    size_t best = first_child;
    const size_t end = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < end; ++c)
      if (dates[c] < dates[best])
        best = c;
    if (dates[hole] <= dates[best])
      break;
    std::swap(dates[hole], dates[best]);
    std::swap(payloads[hole], payloads[best]);
    hole = best;
  }
}

void Engine::EventHeap::pop_front() {
  dates.front() = dates.back();
  dates.pop_back();
  payloads.front() = std::move(payloads.back());
  payloads.pop_back();
  if (!dates.empty()) {
    sift_down(0);
    head_lb = dates.front();
  } else {
    head_lb = std::numeric_limits<double>::infinity();
  }
}

void Engine::EventHeap::rebuild() {
  for (size_t i = dates.size() / 4 + 1; i-- > 0;)
    sift_down(i);
  head_lb = dates.empty() ? std::numeric_limits<double>::infinity() : dates.front();
}

double Engine::reap_heap_top(EventHeap& heap, size_t& stale) {
  while (!heap.empty() && heap.top().stamp != heap.top().action->heap_stamp_) {
    heap.pop_front();
    --stale;
  }
  return heap.empty() ? kInf : heap.top_date();
}

void Engine::compact_completion_heap(ShardEvents& se) {
  EventHeap& heap = se.completion;
  size_t kept = 0;
  for (size_t i = 0; i < heap.size(); ++i) {
    if (heap.payloads[i].stamp != heap.payloads[i].action->heap_stamp_)
      continue;
    heap.dates[kept] = heap.dates[i];
    heap.payloads[kept] = std::move(heap.payloads[i]);
    ++kept;
  }
  heap.dates.resize(kept);
  heap.payloads.resize(kept);
  se.completion_stale = 0;
  heap.rebuild();
}

void Engine::orphan_heap_entry(Action& a) {
  ++a.heap_stamp_;  // any entry already in a heap is now stale
  if (a.in_heap_) {
    // A live entry sits in the latency heap exactly while the action is in
    // its latency phase (the expiry pop clears in_heap_ first).
    ShardEvents& se = shards_[static_cast<size_t>(a.shard_)].events;
    ++(a.in_latency_phase_ ? se.latency_stale : se.completion_stale);
    a.in_heap_ = false;
  }
}

void Engine::schedule_completion(const ActionPtr& a) {
  orphan_heap_entry(*a);
  const double date = action_finish_date(*a);
  if (date == kInf)
    return;  // no push: head bounds can only tighten, no leaf refresh needed
  mark_heads_dirty(a->shard_);
  a->in_heap_ = true;
  ShardEvents& se = shards_[static_cast<size_t>(a->shard_)].events;
  if (a->in_latency_phase_) {
    // Near-term event: keep it out of the big heap (see the member docs).
    se.latency.push(date, a->heap_stamp_, a);
    return;
  }
  se.completion.push(date, a->heap_stamp_, a);
  // Stale entries are normally reaped as they surface at the top, but ones
  // buried under a far-future top would otherwise pin their (possibly
  // finished) actions and grow the heap. Compact once they dominate. (The
  // latency heap needs no compaction: its entries expire within a route
  // latency of being pushed.)
  if (se.completion_stale >= 8 && se.completion_stale * 2 > se.completion.size())
    compact_completion_heap(se);
}

double Engine::shard_event_source(ShardEvents& se, EventHeap** out_heap, size_t** out_stale) {
  const double lat = reap_heap_top(se.latency, se.latency_stale);
  const double comp = reap_heap_top(se.completion, se.completion_stale);
  // The latency heap wins date ties, matching the tournament tree's leaf
  // order (2s before 2s+1).
  if (lat <= comp && lat != kInf) {
    *out_heap = &se.latency;
    *out_stale = &se.latency_stale;
    return lat;
  }
  if (comp != kInf) {
    *out_heap = &se.completion;
    *out_stale = &se.completion_stale;
    return comp;
  }
  *out_heap = nullptr;
  *out_stale = nullptr;
  return kInf;
}

double Engine::next_completion_date() {
  // Incremental target pick: the tournament tree holds every shard heap's
  // cached head bound (leaf 2s = latency, 2s+1 = completion — leaf order is
  // the tie-break). A stale head can only UNDERSTATE its heap's true next
  // date, so the apparent winner is reaped; if its true date still equals
  // the tree minimum it beats every other leaf's lower bound and wins.
  // Otherwise the corrected bound goes back into the tree and we re-pick:
  // O(log shards) per iteration, iterations bounded by stale heads.
  sync_head_trees();
  while (true) {
    const double lb = heap_tree_.min_key();
    if (lb == kInf)
      return kInf;
    const int leaf = heap_tree_.min_leaf();
    ShardEvents& se = shards_[static_cast<size_t>(leaf >> 1)].events;
    EventHeap& heap = (leaf & 1) != 0 ? se.completion : se.latency;
    size_t& stale = (leaf & 1) != 0 ? se.completion_stale : se.latency_stale;
    const double d = reap_heap_top(heap, stale);
    if (d == lb)
      return d;
    heap_tree_.update(leaf, d);  // the reap left head_lb exact (== d)
  }
}

void Engine::share_resources(PhaseProbe* probe) {
  // Sleeps manage their rate directly (1, or 0 while suspended); everyone
  // else mirrors its solver allocation. Only actions whose allocation moved
  // in this (incremental) solve need a refresh — and only those need a new
  // completion date: an unchanged rate leaves the heap entry valid.
  if (!sys_.needs_solve())
    return;
  sys_.solve(workers_.get(), probe);
  const auto& changed = sys_.changed_variables();
  if (changed.empty())
    return;
  // Rate refresh fans out by lane: each lane scans the full changed list and
  // refreshes the actions whose shard maps to it, so every heap receives the
  // same push subsequence (hence the same final state) as a serial scan —
  // at any lane count.
  auto refresh_lane = [&](int lane, int lanes) {
    for (ShardedMaxMin::VarId v : changed) {
      Action* a = action_of_var_[static_cast<size_t>(v)];
      if (a == nullptr || ShardWorkers::lane_of(a->shard_, lanes) != lane)
        continue;
      sync_progress(*a);  // fold in progress made at the old rate
      a->rate_ = sys_.value(v);
      schedule_completion(shards_[static_cast<size_t>(a->shard_)].running[a->run_idx_]);
    }
  };
  if (workers_) {
    workers_->run_lanes(refresh_lane, probe);
  } else if (probe != nullptr) {
    const std::uint64_t t0 = phase_clock_ns();
    refresh_lane(0, 1);
    const std::uint64_t dt = phase_clock_ns() - t0;
    probe->parallel_ns += dt;
    probe->lanes[0].busy_ns += dt;
  } else {
    refresh_lane(0, 1);
  }
}

double Engine::action_finish_date(const Action& a) const {
  if (a.state_ == ActionState::kSuspended)
    return kInf;
  if (a.in_latency_phase_)
    return now_ + a.latency_remaining_;
  if (a.remaining_ <= 0)
    return now_;
  if (a.rate_ > 0)
    return now_ + a.remaining_ / a.rate_;
  return kInf;
}

double Engine::next_event_time() {
  share_resources(nullptr);
  if (!pending_.empty())
    return now_;
  return std::min(next_completion_date(), next_trace_time());
}

void Engine::release_step_log() {
  for (const std::int32_t owner : log_owners_)
    if (owner >= 0)
      shards_[static_cast<size_t>(owner)].fired.clear();
  log_owners_.clear();
  log_segs_.clear();
  log_total_ = 0;
  events_.clear();
  deferred_events_.clear();
}

StepLog Engine::run_until(double deadline) {
  release_step_log();  // the previous round's view expires now

  // Deliver immediately-failed / externally-finished activities first.
  if (!pending_.empty()) {
    std::swap(events_, pending_);
    if (!events_.empty()) {
      log_segs_.push_back({events_.data(), events_.size()});
      log_owners_.push_back(-1);
      log_total_ = events_.size();
    }
    return {log_segs_.data(), log_segs_.size(), log_total_};
  }

  const bool prof = profile_;
  const std::uint64_t t0 = prof ? phase_clock_ns() : 0;
  share_resources(probe_.get());
  const std::uint64_t t1 = prof ? phase_clock_ns() : 0;

  // Next event: earliest valid completion date or trace event. Completion
  // dates were computed when the rates were assigned, in absolute time, so
  // no floating-point advance can strand an action with an un-completable
  // remainder.
  const double next_completion = next_completion_date();
  const double next_trace = next_trace_time();
  const double target = std::min({next_completion, next_trace, deadline});
  if (target == kInf) {
    if (prof) {
      const std::uint64_t t = phase_clock_ns();
      pstats_.solve_ns += t1 - t0;
      pstats_.pick_ns += t - t1;
      pstats_.total_ns += t - t0;
    }
    return {};  // nothing will ever happen
  }
  const double eps = time_eps_at(target);
  now_ = target;
  if (next_completion > target + eps && next_trace > target + kTimeEps) {
    // Pure jump to the deadline: no event fires, nothing to advance.
    if (prof) {
      const std::uint64_t t = phase_clock_ns();
      pstats_.solve_ns += t1 - t0;
      pstats_.pick_ns += t - t1;
      pstats_.total_ns += t - t0;
    }
    return {};
  }

  // Collect the shards with something due this round — trace events at or
  // before now_ (+ the trace tie window) and heap heads at or before target
  // + eps — in ascending shard order. Heap head bounds can only understate,
  // so a listed shard may turn out to have nothing due; advance_shard
  // handles that as a cheap no-op. Batching means several shards sharing
  // the target date (or its tie-break window) advance in ONE fan-out.
  due_shards_.clear();
  trace_tree_.for_each_leaf_le(now_ + kTimeEps,
                               [&](int s) { due_shards_.push_back(s); });
  const size_t n_trace_due = due_shards_.size();
  heap_tree_.for_each_leaf_le(target + eps, [&](int leaf) {
    const std::int32_t s = leaf >> 1;
    // A shard's two leaves visit consecutively — dedup within this pass.
    if (due_shards_.size() == n_trace_due || due_shards_.back() != s)
      due_shards_.push_back(s);
  });
  if (n_trace_due > 0) {  // merge the two ascending runs
    std::sort(due_shards_.begin(), due_shards_.end());
    due_shards_.erase(std::unique(due_shards_.begin(), due_shards_.end()), due_shards_.end());
  }
  const std::uint64_t t2 = prof ? phase_clock_ns() : 0;

  // Advance the due shards (in parallel when lanes were configured): trace
  // events first, then due heap entries. Cost: O(fired + stale + log(shard
  // heap)) per due shard — quiet shards are never touched. The fan-out is
  // bucketed by each shard's canonical lane (lane_of), preserving the
  // invariant that shard state is only ever written by maestro or its lane.
  if (workers_) {
    for (const std::int32_t s : due_shards_)
      lane_scratch_[static_cast<size_t>(ShardWorkers::lane_of(s, lanes_))].due.push_back(s);
    auto advance_lane = [&](int lane, int) {
      for (const std::int32_t s : lane_scratch_[static_cast<size_t>(lane)].due)
        advance_shard(s, target, eps);
    };
    workers_->run_lanes(advance_lane, probe_.get());
    for (LaneScratch& ls : lane_scratch_)
      ls.due.clear();
  } else if (prof) {
    const std::uint64_t ta = phase_clock_ns();
    for (const std::int32_t s : due_shards_)
      advance_shard(s, target, eps);
    const std::uint64_t dt = phase_clock_ns() - ta;
    probe_->parallel_ns += dt;
    probe_->lanes[0].busy_ns += dt;
  } else {
    for (const std::int32_t s : due_shards_)
      advance_shard(s, target, eps);
  }
  const std::uint64_t t3 = prof ? phase_clock_ns() : 0;

  process_deferred();
  gather_step_results();
  if (prof) {
    const std::uint64_t t4 = phase_clock_ns();
    pstats_.solve_ns += t1 - t0;
    pstats_.pick_ns += t2 - t1;
    pstats_.advance_ns += t3 - t2;
    pstats_.epilogue_ns += t4 - t3;
    pstats_.total_ns += t4 - t0;
    ++pstats_.rounds;
    pstats_.events += log_total_;
  }
  return {log_segs_.data(), log_segs_.size(), log_total_};
}

Engine::PhaseStats Engine::phase_stats() const {
  PhaseStats out = pstats_;
  out.lane_busy_ns.assign(static_cast<size_t>(lanes_), 0);
  if (probe_) {
    out.parallel_ns = probe_->parallel_ns;
    for (int l = 0; l < lanes_; ++l)
      out.lane_busy_ns[static_cast<size_t>(l)] = probe_->lanes[static_cast<size_t>(l)].busy_ns;
  }
  return out;
}

void Engine::advance_shard(int shard, double target, double eps) {
  static_assert(kTraceEventsBeforeCompletions);
  ShardState& ss = shards_[static_cast<size_t>(shard)];
  // Everything below may pop trace / heap heads; one conservative mark here
  // covers all of it (runs on this shard's canonical lane, so the push into
  // the lane-local dirty list is race-free under the parallel fan-out).
  mark_heads_dirty(shard);

  // Trace events due now — applied BEFORE the heap events at the same date
  // (see kTraceEventsBeforeCompletions): a resource dying exactly when an
  // action would complete fails the action.
  const Delivery lane{shard, &ss.fired, &ss.notices};
  while (!ss.traces.empty() && ss.traces.top().time <= now_ + kTimeEps) {
    const TraceEvent ev = ss.traces.top();
    ss.traces.pop();
    apply_trace_event(lane, ev);
  }

  // Pop every due event-heap entry (latency expiries from the small near-
  // term heap, completions from the big one). Stale entries (stamp mismatch)
  // are skipped; latency expiries switch the action to its data phase; the
  // rest are real completions. Anything touching state outside this shard is
  // deferred to the serial epilogue.
  while (true) {
    EventHeap* src = nullptr;
    size_t* stale = nullptr;
    const double date = shard_event_source(ss.events, &src, &stale);
    if (src == nullptr || date > target + eps)
      break;
    ActionPtr a = std::move(src->top().action);
    src->pop_front();
    a->in_heap_ = false;
    if (a->state_ != ActionState::kRunning)
      continue;
    const ShardedMaxMin::ShardId home =
        a->var_ >= 0 ? sys_.home_shard(a->var_) : ShardedMaxMin::kDetachedShard;
    // The endpoint comm indexes live on the hosts: only touch them from this
    // lane when both endpoints' hosts belong to this shard.
    const bool lists_local =
        !a->in_endpoint_lists_ ||
        (hosts_[static_cast<size_t>(a->host_)].shard == shard &&
         hosts_[static_cast<size_t>(a->peer_host_)].shard == shard);
    const bool latency = a->in_latency_phase_;
    // A latency expiry's weight flip touches other shards' dirty sets
    // (linked replicas) or the shared detached list: only a variable homed
    // here may flip in the lane. A completion merely releases its variable,
    // which a detached one allows too.
    if (!lists_local || (home != shard && (latency || home != ShardedMaxMin::kDetachedShard)))
      ss.deferred.push_back(DeferredOp{
          latency ? DeferredOp::Kind::kLatencyExpiry : DeferredOp::Kind::kCompletion, std::move(a)});
    else if (latency)
      expire_latency(lane, std::move(a));
    else
      finish_action(lane, std::move(a), ActionState::kDone);
  }
}

void Engine::expire_latency(const Delivery& d, ActionPtr a) {
  if (a->state_ != ActionState::kRunning)
    return;  // failed meanwhile (a deferred failure is processed first)
  // Latency just expired: start consuming bandwidth. The data phase gets its
  // rate (and completion date) from the next sharing recomputation — unless
  // there is no data to transfer at all.
  sync_progress(*a);
  a->in_latency_phase_ = false;
  a->latency_remaining_ = 0;
  if (a->var_ >= 0)
    sys_.set_weight(a->var_, a->priority_);
  if (a->remaining_ <= 0)
    finish_action(d, std::move(a), ActionState::kDone);
}

void Engine::apply_trace_event(const Delivery& lane, const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEvent::Kind::kHostAvail: {
      hosts_[static_cast<size_t>(ev.index)].scale = ev.value;
      refresh_host_capacity(ev.index);
      schedule_next(platform_.host(ev.index).availability, ev.kind, ev.index, ev.time);
      break;
    }
    case TraceEvent::Kind::kHostState: {
      apply_host_state(lane, ev.index, ev.value > 0.5);
      schedule_next(platform_.host(ev.index).state, ev.kind, ev.index, ev.time);
      break;
    }
    case TraceEvent::Kind::kLinkAvail: {
      links_[static_cast<size_t>(ev.index)].scale = ev.value;
      refresh_link_capacity(static_cast<platform::LinkId>(ev.index));
      schedule_next(platform_.link(static_cast<platform::LinkId>(ev.index)).availability, ev.kind, ev.index,
                    ev.time);
      break;
    }
    case TraceEvent::Kind::kLinkState: {
      apply_link_state(lane, static_cast<platform::LinkId>(ev.index), ev.value > 0.5);
      schedule_next(platform_.link(static_cast<platform::LinkId>(ev.index)).state, ev.kind, ev.index, ev.time);
      break;
    }
  }
}

void Engine::refresh_host_capacity(int host) {
  const HostRes& res = hosts_[static_cast<size_t>(host)];
  if (res.cnst < 0)
    return;  // departed: constraint released; scale/state were still recorded
  sys_.set_capacity(res.cnst, res.on ? platform_.host(host).speed_flops * res.scale : 0.0);
  if (res.loopback >= 0)
    sys_.set_capacity(res.loopback, res.on ? loopback_bw_ : 0.0);
}

void Engine::refresh_link_capacity(platform::LinkId link) {
  const LinkRes& res = links_[static_cast<size_t>(link)];
  if (res.cnst < 0)
    return;  // private link of a departed host
  sys_.set_capacity(res.cnst,
                    res.on ? platform_.link(link).bandwidth_Bps * res.scale * bandwidth_factor_ : 0.0);
}

void Engine::fail_constraint(const Delivery& d, ShardedMaxMin::CnstId cnst) {
  // The solver's element arena IS the cnst -> actions index: walk the
  // constraint's user list and map variables back to actions. Collect
  // before finishing — finishing releases the victim's variable, which
  // mutates the very list being walked. Duplicate entries (a variable
  // expanded twice on the constraint) and actions spanning several failed
  // constraints are deduplicated by the finish idempotence guard: each
  // action emits exactly one failure event.
  //
  // Reading a cross-shard victim's slot from a lane is race-free: an action
  // whose variable spans shards is never finished inside a parallel phase
  // (every lane defers it), so its slot entry is stable for the whole phase.
  std::vector<ActionPtr> victims;
  sys_.for_each_variable_on(cnst, [&](ShardedMaxMin::VarId v, double) {
    Action* a = action_of_var_[static_cast<size_t>(v)];
    if (a != nullptr && (victims.empty() || victims.back().get() != a))
      victims.push_back(shards_[static_cast<size_t>(a->shard_)].running[a->run_idx_]);
  });
  for (ActionPtr& a : victims)
    fail_one(d, std::move(a));
}

void Engine::fail_one(const Delivery& d, ActionPtr action) {
  if (d.shard >= 0) {
    // Lane context: finish in place only when the victim's whole state
    // (slot, variable, endpoint indexes) lives in the lane's shard.
    const int shard = d.shard;
    const ShardedMaxMin::ShardId home =
        action->var_ >= 0 ? sys_.home_shard(action->var_) : ShardedMaxMin::kDetachedShard;
    const bool lists_local =
        !action->in_endpoint_lists_ ||
        (hosts_[static_cast<size_t>(action->host_)].shard == shard &&
         hosts_[static_cast<size_t>(action->peer_host_)].shard == shard);
    if (action->shard_ != shard || (home != ShardedMaxMin::kDetachedShard && home != shard) ||
        !lists_local) {
      shards_[static_cast<size_t>(shard)].deferred.push_back(
          DeferredOp{DeferredOp::Kind::kFailure, std::move(action)});
      return;
    }
  }
  finish_action(d, std::move(action), ActionState::kFailed);
}

void Engine::apply_host_state(const Delivery& d, int host, bool on) {
  HostRes& res = hosts_[static_cast<size_t>(host)];
  if (res.cnst < 0) {
    // Departed host: its trace chain keeps ticking (so a rejoin resumes in
    // phase) but flaps neither fail anything nor reach the observer.
    res.on = on;
    return;
  }
  if (res.on == on)
    return;
  res.on = on;
  refresh_host_capacity(host);
  if (!on) {
    fail_constraint(d, res.cnst);
    if (res.loopback >= 0)
      fail_constraint(d, res.loopback);
    // Copy out of the indexes first: finishing swap-removes from them. A
    // sleep always lives in its host's shard, so a lane never defers one.
    std::vector<ActionPtr> victims;
    for (Action* a : res.sleeps)
      victims.push_back(shards_[static_cast<size_t>(a->shard_)].running[a->run_idx_]);
    for (ActionPtr& a : victims)
      fail_one(d, std::move(a));
    if (kill_transit_comms_) {
      // Comms already killed through a dead constraint (loopback) are
      // skipped by the finish idempotence guard.
      victims.clear();
      for (Action* a : res.comms)
        victims.push_back(shards_[static_cast<size_t>(a->shard_)].running[a->run_idx_]);
      for (ActionPtr& a : victims)
        fail_one(d, std::move(a));
    }
  }
  if (!resource_observer_)
    return;
  if (d.notices != nullptr)
    d.notices->push_back(Notice{nullptr, ActionState::kRunning, ActionState::kRunning, true, host, on});
  else
    resource_observer_(true, host, on);
}

void Engine::apply_link_state(const Delivery& d, platform::LinkId link, bool on) {
  LinkRes& res = links_[static_cast<size_t>(link)];
  if (res.cnst < 0) {  // private link of a departed host: silent (see above)
    res.on = on;
    return;
  }
  if (res.on == on)
    return;
  res.on = on;
  refresh_link_capacity(link);
  if (!on)
    fail_constraint(d, res.cnst);
  if (!resource_observer_)
    return;
  if (d.notices != nullptr)
    d.notices->push_back(Notice{nullptr, ActionState::kRunning, ActionState::kRunning, false, link, on});
  else
    resource_observer_(false, link, on);
}

void Engine::process_deferred() {
  // Failures first — they stem from trace events, which the tie-break says
  // precede completions at the same date (a cross-shard action discovered
  // both completing and failing must fail) — then latency expiries and
  // completions; within each pass, fixed shard order then discovery order.
  const Delivery serial{-1, &deferred_events_, &deferred_notices_};
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::int32_t s : due_shards_) {
      ShardState& ss = shards_[static_cast<size_t>(s)];
      for (DeferredOp& op : ss.deferred) {
        const bool failure = op.kind == DeferredOp::Kind::kFailure;
        if (failure != (pass == 0) || !op.action)
          continue;
        if (op.kind == DeferredOp::Kind::kLatencyExpiry)
          expire_latency(serial, std::move(op.action));
        else
          finish_action(serial, std::move(op.action), failure ? ActionState::kFailed : ActionState::kDone);
      }
    }
  }
  for (const std::int32_t s : due_shards_)
    shards_[static_cast<size_t>(s)].deferred.clear();
}

void Engine::gather_step_results() {
  // Commit the ids released inside the parallel phase, in fixed shard order
  // (due_shards_ is ascending): the free-list order — hence id reuse — is
  // the same at any lane count. Only advanced shards can hold releases.
  for (const std::int32_t s : due_shards_) {
    ShardState& ss = shards_[static_cast<size_t>(s)];
    if (!ss.released.empty()) {
      sys_.commit_released(ss.released.data(), ss.released.size());
      ss.released.clear();
    }
  }
  // Publish the per-shard event logs shard-major as a zero-copy sequence of
  // segments (the epilogue's last); the buffers stay put until the next
  // run_until(). Empty segments are skipped up front, so a shard
  // that advanced without firing — or a zero-event round — never reaches
  // the published view.
  for (const std::int32_t s : due_shards_) {
    ShardState& ss = shards_[static_cast<size_t>(s)];
    if (ss.fired.empty())
      continue;
    log_segs_.push_back({ss.fired.data(), ss.fired.size()});
    log_owners_.push_back(s);
    log_total_ += ss.fired.size();
  }
  if (!deferred_events_.empty()) {
    log_segs_.push_back({deferred_events_.data(), deferred_events_.size()});
    log_owners_.push_back(-1);
    log_total_ += deferred_events_.size();
  }
  // Observers fire last, in the same canonical order, after every mutation
  // is committed — they may re-enter the engine (cancel, new activities).
  // Re-entry lands in pending_, never in the buffers published above.
  for (const std::int32_t s : due_shards_) {
    ShardState& ss = shards_[static_cast<size_t>(s)];
    for (const Notice& n : ss.notices)
      fire_notice(n);
    ss.notices.clear();
  }
  for (const Notice& n : deferred_notices_)
    fire_notice(n);
  deferred_notices_.clear();
}

void Engine::fire_notice(const Notice& n) {
  if (n.action != nullptr)
    notify(*n.action, n.old_state, n.new_state);
  else if (resource_observer_)
    resource_observer_(n.res_is_host, n.res_index, n.res_on);
}

void Engine::endpoint_lists_add(const ActionPtr& action) {
  Action* a = action.get();
  auto& src = hosts_[static_cast<size_t>(a->host_)].comms;
  a->host_list_idx_ = static_cast<std::uint32_t>(src.size());
  src.push_back(a);
  if (a->peer_host_ != a->host_) {
    auto& dst = hosts_[static_cast<size_t>(a->peer_host_)].comms;
    a->peer_list_idx_ = static_cast<std::uint32_t>(dst.size());
    dst.push_back(a);
  }
  a->in_endpoint_lists_ = true;
}

void Engine::endpoint_list_remove(int host, std::uint32_t idx) {
  // O(1) swap-removal. The moved action may sit in this list as a source or
  // as a destination endpoint; patch whichever index points here.
  auto& comms = hosts_[static_cast<size_t>(host)].comms;
  comms[idx] = comms.back();
  comms.pop_back();
  if (static_cast<size_t>(idx) < comms.size()) {
    Action* moved = comms[idx];
    if (moved->host_ == host)
      moved->host_list_idx_ = idx;
    else
      moved->peer_list_idx_ = idx;
  }
}

// Takes the ActionPtr by value: callers may pass a reference into a slot
// table, which the slot reset below would otherwise invalidate mid-function.
void Engine::finish_action(const Delivery& d, ActionPtr action, ActionState final_state) {
  // Idempotence guard: an observer notified below may re-enter and finish
  // (e.g. cancel) an action that a caller already collected as a victim —
  // and a failure may reach the same action through several constraints.
  // Finishing twice would reuse the stale run_idx_ and corrupt the slots.
  if (action->state_ != ActionState::kRunning && action->state_ != ActionState::kSuspended)
    return;
  sync_progress(*action);  // credit progress made since the last rate change
  const ActionState old_state = action->state_;
  action->state_ = final_state;
  action->finish_time_ = now_;
  if (final_state == ActionState::kDone)
    action->remaining_ = 0;
  orphan_heap_entry(*action);  // orphan any entry still in the completion heap
  if (action->var_ >= 0) {
    action_of_var_[static_cast<size_t>(action->var_)] = nullptr;
    if (d.shard >= 0) {
      // Lane context: release into this shard's arena only; the global id
      // is recycled serially (commit_released, fixed shard order) so id
      // reuse — and with it every downstream ordering — stays identical at
      // any lane count.
      sys_.release_variable_local(action->var_);
      shards_[static_cast<size_t>(d.shard)].released.push_back(action->var_);
    } else {
      sys_.release_variable(action->var_);
    }
    action->var_ = -1;
  }
  if (action->kind_ == ActionKind::kSleep && action->host_ >= 0) {
    // O(1) removal from the host's sleep index.
    auto& sleeps = hosts_[static_cast<size_t>(action->host_)].sleeps;
    const std::uint32_t si = action->host_list_idx_;
    sleeps[si] = sleeps.back();
    sleeps[si]->host_list_idx_ = si;
    sleeps.pop_back();
  } else if (action->in_endpoint_lists_) {
    endpoint_list_remove(action->host_, action->host_list_idx_);
    if (action->peer_host_ != action->host_)
      endpoint_list_remove(action->peer_host_, action->peer_list_idx_);
    action->in_endpoint_lists_ = false;
  }
  // O(1) removal: clear the slot and recycle it (LIFO keeps it cache-hot).
  ShardState& ss = shards_[static_cast<size_t>(action->shard_)];
  const size_t idx = action->run_idx_;
  ss.running[idx].reset();
  ss.free_slots.push_back(idx);
  --ss.running_count;
  if (d.notices == nullptr)
    notify(*action, old_state, final_state);
  else if (observer_)
    d.notices->push_back(Notice{action, old_state, final_state, false, -1, false});
  d.events->push_back(ActionEvent{std::move(action), final_state == ActionState::kFailed});
}

void Engine::notify(const Action& action, ActionState old_state, ActionState new_state) {
  if (observer_)
    observer_(action, old_state, new_state);
}

double Engine::host_speed(int host) const {
  const HostRes& res = hosts_.at(static_cast<size_t>(host));
  return res.on ? platform_.host(host).speed_flops * res.scale : 0.0;
}

double Engine::link_bandwidth(platform::LinkId link) const {
  const LinkRes& res = links_.at(static_cast<size_t>(link));
  return res.on ? platform_.link(link).bandwidth_Bps * res.scale : 0.0;
}

double Engine::host_load(int host) {
  share_resources(nullptr);
  return sys_.usage(hosts_.at(static_cast<size_t>(host)).cnst);
}

double Engine::link_load(platform::LinkId link) {
  share_resources(nullptr);
  return sys_.usage(links_.at(static_cast<size_t>(link)).cnst);
}

void Engine::set_host_state(int host, bool on) {
  hosts_.at(static_cast<size_t>(host));  // range check with the usual exception
  platform_.check_host_present(host, "set_host_state");  // "departed at t=…"
  std::vector<ActionEvent> out;
  apply_host_state(Delivery{-1, &out, nullptr}, host, on);
  for (auto& ev : out)
    pending_.push_back(std::move(ev));
}

void Engine::set_link_state(platform::LinkId link, bool on) {
  links_.at(static_cast<size_t>(link));  // range check with the usual exception
  std::vector<ActionEvent> out;
  apply_link_state(Delivery{-1, &out, nullptr}, link, on);
  for (auto& ev : out)
    pending_.push_back(std::move(ev));
}

void Engine::set_host_scale(int host, double scale) {
  hosts_.at(static_cast<size_t>(host)).scale = scale;
  refresh_host_capacity(host);
}

void Engine::set_link_scale(platform::LinkId link, double scale) {
  links_.at(static_cast<size_t>(link)).scale = scale;
  refresh_link_capacity(link);
}

// ---------------------------------------------------------------------------
// Dynamic membership
// ---------------------------------------------------------------------------

int Engine::join_host(platform::ZoneId zone, const std::string& name, double speed_flops) {
  const int h = platform_.join_host(zone, name, speed_flops);
  adopt_new_resources();
  return h;
}

int Engine::join_host(const platform::HostSpec& spec, platform::NodeId attach,
                      const platform::LinkSpec& uplink) {
  const int h = platform_.join_host(spec, attach, uplink);
  adopt_new_resources();
  return h;
}

void Engine::adopt_new_resources() {
  const platform::ShardMap& smap = platform_.shard_map();
  for (size_t h = hosts_.size(); h < platform_.host_count(); ++h) {
    const auto& spec = platform_.host(static_cast<int>(h));
    HostRes res;
    if (!spec.availability.empty())
      res.scale = spec.availability.value_at(now_);
    if (!spec.state.empty())
      res.on = spec.state.value_at(now_) > 0.5;
    // With engine/sharding off the shard map still names zone shards the
    // engine never built; everything collapses to the single shard 0.
    const std::int32_t ps = smap.host_shard[h];
    res.shard = static_cast<size_t>(ps) < shards_.size() ? ps : 0;
    res.cnst = sys_.new_constraint_in(res.shard, res.on ? spec.speed_flops * res.scale : 0.0,
                                      /*shared=*/true);
    hosts_.push_back(std::move(res));
    if (!spec.availability.empty())
      schedule_next(spec.availability, TraceEvent::Kind::kHostAvail, static_cast<int>(h), now_);
    if (!spec.state.empty())
      schedule_next(spec.state, TraceEvent::Kind::kHostState, static_cast<int>(h), now_);
  }
  for (size_t l = links_.size(); l < platform_.link_count(); ++l) {
    const auto& spec = platform_.link(static_cast<platform::LinkId>(l));
    LinkRes res;
    if (!spec.availability.empty())
      res.scale = spec.availability.value_at(now_);
    if (!spec.state.empty())
      res.on = spec.state.value_at(now_) > 0.5;
    const std::int32_t ps = smap.link_shard[l];
    res.shard = static_cast<size_t>(ps) < shards_.size() ? ps : 0;
    res.cnst = sys_.new_constraint_in(res.shard,
                                      res.on ? spec.bandwidth_Bps * res.scale * bandwidth_factor_ : 0.0,
                                      spec.policy == platform::SharingPolicy::kShared);
    links_.push_back(std::move(res));
    if (!spec.availability.empty())
      schedule_next(spec.availability, TraceEvent::Kind::kLinkAvail, static_cast<int>(l), now_);
    if (!spec.state.empty())
      schedule_next(spec.state, TraceEvent::Kind::kLinkState, static_cast<int>(l), now_);
  }
}

void Engine::leave_host(int host) {
  hosts_.at(static_cast<size_t>(host));  // range check with the usual exception
  const std::vector<platform::LinkId> private_links = platform_.host_private_links(host);
  platform_.leave_host(host, now_);  // validates presence; routes now refuse the host

  // Structured teardown: everything on the host, its loopback, and its
  // private links fails — exactly once each (the finish idempotence guard
  // dedups victims reached through several dead constraints), observers
  // firing inline as ever for explicit state changes.
  std::vector<ActionEvent> out;
  const Delivery serial{-1, &out, nullptr};
  apply_host_state(serial, host, false);
  for (platform::LinkId l : private_links)
    apply_link_state(serial, l, false);

  // Release the constraints through the solver's id-recycling paths: the
  // fail sweeps above emptied them, and a released id is reused by the next
  // constraint creation (a later join or rejoin).
  HostRes& res = hosts_[static_cast<size_t>(host)];
  if (res.cnst >= 0) {
    sys_.release_constraint(res.cnst);
    res.cnst = -1;
  }
  if (res.loopback >= 0) {
    sys_.release_constraint(res.loopback);
    res.loopback = -1;
  }
  for (platform::LinkId l : private_links) {
    LinkRes& lres = links_[static_cast<size_t>(l)];
    if (lres.cnst >= 0) {
      sys_.release_constraint(lres.cnst);
      lres.cnst = -1;
    }
  }
  for (auto& ev : out)
    pending_.push_back(std::move(ev));
}

void Engine::rejoin_host(int host) {
  hosts_.at(static_cast<size_t>(host));  // range check with the usual exception
  platform_.rejoin_host(host);           // validates "is already present"

  // Bring-up mirrors construction, evaluated at now(): the trace chains kept
  // ticking while the host was away (the departed guards recorded their
  // values), so capacity and up/down state resume exactly in phase.
  HostRes& res = hosts_[static_cast<size_t>(host)];
  const auto& spec = platform_.host(host);
  res.scale = spec.availability.empty() ? res.scale : spec.availability.value_at(now_);
  res.on = spec.state.empty() ? true : spec.state.value_at(now_) > 0.5;
  res.cnst = sys_.new_constraint_in(res.shard, res.on ? spec.speed_flops * res.scale : 0.0,
                                    /*shared=*/true);
  // res.loopback stays -1: recreated lazily by the first self-comm.
  for (platform::LinkId l : platform_.host_private_links(host)) {
    LinkRes& lres = links_[static_cast<size_t>(l)];
    if (lres.cnst >= 0)
      continue;  // shared with another present host (not actually private)
    const auto& lspec = platform_.link(l);
    lres.scale = lspec.availability.empty() ? lres.scale : lspec.availability.value_at(now_);
    lres.on = lspec.state.empty() ? true : lspec.state.value_at(now_) > 0.5;
    lres.cnst = sys_.new_constraint_in(lres.shard,
                                       lres.on ? lspec.bandwidth_Bps * lres.scale * bandwidth_factor_ : 0.0,
                                       lspec.policy == platform::SharingPolicy::kShared);
  }
  // The return is a resource bring-up: the kernel's observer respawns the
  // host's restart-on-rejoin daemons on this notification.
  if (resource_observer_ && res.on)
    resource_observer_(true, host, true);
}

}  // namespace sg::core
