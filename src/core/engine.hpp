/// \file engine.hpp
/// The SURF simulation engine: owns the platform's resource state (speeds,
/// bandwidth, availability scaling, up/down state), the sharded MaxMin
/// system, and all running actions. Time advances from event to event: the
/// next action completion, the next latency-phase expiry, or the next trace
/// event (availability change or failure).
///
/// The simulation core is sharded along zone boundaries (engine/sharding,
/// on by default): each sealed zone gets its own MaxMinSystem shard and its
/// own completion/latency heaps, sized from the platform's shard map; the
/// backbone shard (0) holds WAN/gateway constraints and unzoned resources.
/// Actions carry a shard tag assigned at creation (the zone shard for
/// intra-zone activities, backbone otherwise), and a re-solve touches only
/// the dirty shards — so intra-zone per-event cost is independent of total
/// platform size. Cross-zone flows couple shards only through the solver's
/// linked-replica layer (see maxmin.hpp); results are identical to the
/// unsharded engine.
///
/// ## Threading model (engine/threads)
///
/// run_until() is phase-structured so the per-shard phases can fan out over
/// a ShardWorkers pool (engine/threads lanes, default 1; shard s always on
/// lane s % lanes). The serial spine — dirty-closure fixpoint, changed-id
/// aggregation, target-date selection, cross-shard finishes, event-log
/// merge — brackets two parallel phases:
///   * solve + rate refresh: uncoupled shard solves fan out (the coupled
///     group co-solves on the caller), then each lane refreshes the rates
///     and heap entries of its own shards' changed actions;
///   * advance: each lane applies its shards' due trace events and pops its
///     shards' due heap entries, finishing single-shard actions in place.
/// Anything whose solver variable spans shards is deferred to the serial
/// epilogue, which also commits released ids and merges the per-shard event
/// logs in fixed shard order. Every lane writes only its own shards' state,
/// and every cross-lane ordering decision is made serially — so the event
/// log is bitwise identical (and clocks exact) at every thread count.
///
/// Failure propagation is O(affected): when a resource dies, its victims are
/// found through the solver's element arena (constraint -> variables ->
/// actions) and a per-host sleep index, never by scanning the running set.
/// By default a transit communication survives the death of its endpoint
/// hosts (CM02 semantics); setting engine/kill-transit-comms makes a host's
/// death also fail every comm it is an endpoint of (L07-style), delivered
/// through a per-host endpoint index, still O(affected).
///
/// Every finish and failure — trace-driven or explicit — goes through one
/// path (apply_*_state -> fail_constraint -> fail_one -> finish_action),
/// told by a Delivery where it runs. In the lane context (a trace event or
/// heap pop inside advance_shard) ids are released shard-locally, events
/// and observer notices land in the shard's gather buffers, and a victim
/// whose state reaches beyond the shard is deferred to the serial epilogue.
/// In the serial context (set_*_state, leave_host, cancel, the epilogue)
/// every victim finishes at once in discovery order. The explicit setters
/// fire observers inline, per victim, before the resource notice: an
/// observer may react to one failure by cancelling a not-yet-finished
/// sibling, and the idempotence guard in finish_action turns the sweep's
/// later visit into a no-op (the re-entrancy contract pinned by
/// ReentrantObserverCancelDoesNotDoubleFinish). Such a cancel is delivered
/// ahead of the sweep's failures, which are collected locally and queued
/// only once the sweep is over.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/action.hpp"
#include "core/maxmin.hpp"
#include "core/tourney.hpp"
#include "platform/platform.hpp"
#include "xbt/settings.hpp"

namespace sg::core {

struct ActionBlockPool;  // LIFO recycler for action allocations (engine.cpp)
class ShardWorkers;      // per-shard worker pool (workers.hpp)
struct PhaseProbe;       // per-lane occupancy sink (workers.hpp)

/// Typed config keys owned by the engine; declare_engine_config() registers
/// them (defaults in parentheses). engine/threads is seeded by SG_THREADS.
inline constexpr config::NumberKey kCfgTcpGamma{"network/tcp-gamma"};
inline constexpr config::NumberKey kCfgBandwidthFactor{"network/bandwidth-factor"};
inline constexpr config::NumberKey kCfgLoopbackBw{"network/loopback-bw"};
inline constexpr config::NumberKey kCfgLoopbackLat{"network/loopback-lat"};
inline constexpr config::FlagKey kCfgSharding{"engine/sharding"};
inline constexpr config::FlagKey kCfgKillTransitComms{"engine/kill-transit-comms"};
inline constexpr config::IntKey kCfgThreads{"engine/threads"};
inline constexpr config::FlagKey kCfgParallelActors{"engine/parallel-actors"};
inline constexpr config::FlagKey kCfgProfile{"engine/profile"};

/// What the engine reports after each step.
struct ActionEvent {
  ActionPtr action;
  bool failed = false;  ///< true when a resource died under the action
};

/// Zero-copy view of one run_until() round's events: an ordered sequence of
/// non-empty segments, each a span straight into a shard's fired buffer
/// (fixed shard order, the serial epilogue's events last) — nothing is
/// copied into a merge sink. Iterates like a flat forward range of
/// ActionEvent; valid until the next run_until() call.
class StepLog {
public:
  class const_iterator {
  public:
    using value_type = ActionEvent;
    using reference = const ActionEvent&;
    using pointer = const ActionEvent*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    reference operator*() const { return segs_[seg_][idx_]; }
    pointer operator->() const { return &segs_[seg_][idx_]; }
    const_iterator& operator++() {
      if (++idx_ == segs_[seg_].size()) {  // segments are never empty
        ++seg_;
        idx_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const const_iterator& o) const { return seg_ == o.seg_ && idx_ == o.idx_; }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

  private:
    friend class StepLog;
    const_iterator(const std::span<const ActionEvent>* segs, size_t seg)
        : segs_(segs), seg_(seg) {}
    const std::span<const ActionEvent>* segs_ = nullptr;
    size_t seg_ = 0;
    size_t idx_ = 0;
  };

  StepLog() = default;

  size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  const_iterator begin() const { return {segs_, 0}; }
  const_iterator end() const { return {segs_, n_segs_}; }
  /// Random access across the segment boundaries (O(segments) walk — the
  /// log is typically one or two segments).
  const ActionEvent& operator[](size_t i) const {
    size_t seg = 0;
    while (i >= segs_[seg].size()) {
      i -= segs_[seg].size();
      ++seg;
    }
    return segs_[seg][i];
  }

private:
  friend class Engine;
  StepLog(const std::span<const ActionEvent>* segs, size_t n_segs, size_t total)
      : segs_(segs), n_segs_(n_segs), total_(total) {}
  const std::span<const ActionEvent>* segs_ = nullptr;
  size_t n_segs_ = 0;
  size_t total_ = 0;
};

class Engine {
public:
  /// The engine copies the (sealed) platform description and builds runtime
  /// resource state from it.
  explicit Engine(platform::Platform platform);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  double now() const { return now_; }
  const platform::Platform& platform() const { return platform_; }

  // -- starting activities ---------------------------------------------------
  // Every creator takes an optional display name. An empty name keeps the
  // kind's default ("exec", "comm", ...) without constructing a std::string
  // — creation is the hot path of churn workloads — while a custom one is
  // stored in the shared side table (see ActionBlockPool). The name is set
  // before the creation notice (Running -> Running), so observers see it.

  /// Computation of `flops` on a host. Throws HostFailureException if the
  /// host is currently down.
  ActionPtr exec_start(int host, double flops, double priority = 1.0, std::string_view name = {});

  /// Point-to-point transfer of `bytes` from src to dst along the platform
  /// route. rate_limit (> 0) additionally caps the transfer rate (sender
  /// throttling). The TCP window cap gamma/(2*latency) applies automatically.
  ActionPtr comm_start(int src_host, int dst_host, double bytes, double rate_limit = -1.0,
                       std::string_view name = {});

  /// Parallel task (paper: "Parallel tasks" under resource sharing): a single
  /// activity consuming several CPUs and the links between them. The action
  /// completes when the common progress fraction reaches 1.
  /// flops[i] is the work of hosts[i]; bytes[i][j] the data sent i -> j.
  ActionPtr ptask_start(const std::vector<int>& hosts, const std::vector<double>& flops,
                        const std::vector<std::vector<double>>& bytes, std::string_view name = {});

  /// Pure delay on a host (fails if the host dies while sleeping).
  ActionPtr sleep_start(int host, double duration, std::string_view name = {});

  // -- time advance -----------------------------------------------------------
  /// Advance simulated time to the next event date, but no further than
  /// `deadline`, and return the completion/failure events that fired — in
  /// deterministic order (fixed shard order, stable intra-shard order; see
  /// the threading-model notes above). The returned view stays valid until
  /// the next run_until() call; copy it out to keep events longer. If
  /// nothing happens before `deadline`, time jumps there and the view is
  /// empty; if deadline is +inf and nothing is pending, time does not move.
  /// This is THE run-loop entry point.
  StepLog run_until(double deadline = std::numeric_limits<double>::infinity());

  /// Date of the next engine event (action completion / trace event), or
  /// +inf when nothing is pending; recomputes sharing first. This is the
  /// probe for "will anything ever happen" (the kernel's deadlock detector):
  /// an empty run_until() log cannot answer it, because a round that only
  /// applies availability traces is empty too.
  double next_event_time();

  // -- resource state ----------------------------------------------------------
  bool host_is_on(int host) const { return hosts_[static_cast<size_t>(host)].on; }
  bool link_is_on(platform::LinkId link) const { return links_[static_cast<size_t>(link)].on; }
  /// Current effective speed (flop/s) including the availability trace.
  double host_speed(int host) const;
  double host_available_speed_fraction(int host) const { return hosts_[static_cast<size_t>(host)].scale; }
  double link_bandwidth(platform::LinkId link) const;
  /// Instantaneous load: sum of allocations on the resource's constraint.
  double host_load(int host);
  double link_load(platform::LinkId link);

  /// Force state changes (used by tests and by the fault-injection toolbox;
  /// trace events use the same path).
  void set_host_state(int host, bool on);
  void set_link_state(platform::LinkId link, bool on);
  void set_host_scale(int host, double scale);
  void set_link_scale(platform::LinkId link, double scale);

  // -- dynamic membership ------------------------------------------------------
  /// Join a new member host to a sealed cluster zone (see Platform::join_host)
  /// and bring its runtime resources up: constraints are created through the
  /// solver's id-recycling paths in the zone's existing shard, and the host's
  /// availability/state traces start ticking at now(). Returns the host index.
  int join_host(platform::ZoneId zone, const std::string& name = "", double speed_flops = -1.0);
  /// Graph-attach flavour (see the Platform overload); resources land on the
  /// backbone shard.
  int join_host(const platform::HostSpec& spec, platform::NodeId attach,
                const platform::LinkSpec& uplink);
  /// Structured teardown of a departing host: every activity on the host, its
  /// loopback, and its private links fails (delivered exactly once through
  /// the next run_until(); transit comms additionally die under
  /// engine/kill-transit-comms), the constraints are released for id reuse,
  /// and the platform marks the host "departed at t=now()". The host's trace
  /// chains keep ticking silently so a later rejoin resumes them in phase.
  void leave_host(int host);
  /// Structured bring-up of a returning host: presence flips back, fresh
  /// constraints are created (recycled ids) at the trace-correct capacity,
  /// and the resource observer fires (true, host, true) so the kernel can
  /// respawn restart-on-rejoin daemons.
  void rejoin_host(int host);
  bool host_present(int host) const { return platform_.host_present(host); }

  /// Number of actions still running.
  size_t running_action_count() const;

  /// Read-only view of the sharing system (tests and the memory-footprint
  /// bench metrics; the solver's arena doubles as the failure index).
  const ShardedMaxMin& sharing_system() const { return sys_; }

  /// Number of simulation shards (zones + backbone; 1 when engine/sharding
  /// is off or the platform has no zones).
  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// Shard a host's resources (and its local activities) belong to.
  std::int32_t shard_of_host(int host) const { return hosts_[static_cast<size_t>(host)].shard; }
  /// Worker lanes actually used (engine/threads clamped to the shard count).
  int thread_count() const { return lanes_; }
  /// The engine's worker-lane pool, or null when thread_count() == 1. The
  /// kernel's parallel scheduling phase (engine/parallel-actors) fans actor
  /// resumes out over these same lanes — one pool, one generation barrier —
  /// rather than spinning up a second thread pool.
  ShardWorkers* workers() { return workers_.get(); }

  /// Observer invoked on every action state transition (viz/tracing hook).
  /// During run_until() the notifications are gathered per shard and fired
  /// from the serial epilogue, in event-log order.
  using ActionObserver = std::function<void(const Action&, ActionState /*old*/, ActionState /*new*/)>;
  void set_action_observer(ActionObserver obs) { observer_ = std::move(obs); }

  /// Observer invoked whenever a resource changes up/down state (the kernel
  /// uses it to kill/restart the actors living on a failed host).
  using ResourceObserver = std::function<void(bool /*is_host*/, int /*index*/, bool /*now_on*/)>;
  void set_resource_observer(ResourceObserver obs) { resource_observer_ = std::move(obs); }

  /// Cumulative phase-level profile of run_until() (engine/profile): wall
  /// nanoseconds per serial-spine phase, fan-out occupancy, and round/event
  /// counters. All zeros while profiling is off.
  struct PhaseStats {
    std::uint64_t rounds = 0;       ///< run_until() calls that did a full round
    std::uint64_t events = 0;       ///< events delivered through the step log
    std::uint64_t solve_ns = 0;     ///< share_resources: solve + rate refresh
    std::uint64_t pick_ns = 0;      ///< target-date pick + due-shard collection
    std::uint64_t advance_ns = 0;   ///< due-shard advance fan-out
    std::uint64_t epilogue_ns = 0;  ///< deferred ops + gather + notices
    std::uint64_t total_ns = 0;     ///< whole run_until() body
    std::uint64_t parallel_ns = 0;  ///< wall spent inside worker fan-outs
    std::vector<std::uint64_t> lane_busy_ns;  ///< busy time per lane, fan-outs only
    /// Fraction of the run_until() wall spent OUTSIDE parallel fan-outs —
    /// the Amdahl serial fraction the lane count cannot shrink.
    double serial_fraction() const {
      return total_ns > 0
                 ? 1.0 - static_cast<double>(parallel_ns) / static_cast<double>(total_ns)
                 : 0.0;
    }
  };
  /// Snapshot of the profile counters (cheap; see engine/profile).
  PhaseStats phase_stats() const;

private:
  friend class Action;

  /// Event ordering at equal dates, codified here and consumed only by
  /// advance_shard() (the regression suite pins it): within a step, trace
  /// events (availability/state flips) apply BEFORE heap events (latency
  /// expiries, completions) due at the same date — a resource dying exactly
  /// when an action would complete FAILS the action. Among trace events,
  /// (time, kind, index) is a total order; within the heaps, the latency
  /// heap wins date ties against the completion heap.
  static constexpr bool kTraceEventsBeforeCompletions = true;

  struct HostRes {
    ShardedMaxMin::CnstId cnst = -1;
    ShardedMaxMin::CnstId loopback = -1;  ///< lazily created
    std::int32_t shard = 0;  ///< zone shard (0: unzoned / sharding off)
    double scale = 1.0;
    bool on = true;
    /// Sleeps currently running on this host (swap-removed via
    /// Action::host_list_idx_): sleeps have no solver variable, so the arena
    /// cannot index them — this list keeps host-failure sweeps O(affected).
    std::vector<Action*> sleeps;
    /// Comms this host is an endpoint of, maintained only under
    /// engine/kill-transit-comms (src side indexed by host_list_idx_, dst
    /// side by peer_list_idx_) so a host death can fail its transit comms
    /// in O(affected).
    std::vector<Action*> comms;
  };
  struct LinkRes {
    ShardedMaxMin::CnstId cnst = -1;
    std::int32_t shard = 0;  ///< zone shard (0: unzoned / sharding off)
    double scale = 1.0;
    bool on = true;
  };
  struct TraceEvent {
    double time;
    enum class Kind { kHostAvail, kHostState, kLinkAvail, kLinkState } kind;
    int index;
    double value;
    /// Total order (time, kind, index) — see kTraceEventsBeforeCompletions.
    bool operator>(const TraceEvent& other) const {
      if (time != other.time)
        return time > other.time;
      if (kind != other.kind)
        return kind > other.kind;
      return index > other.index;
    }
  };

  /// Event min-heap in SoA layout: the 4-ary heap order lives in a dense
  /// array of dates, with the payload (stamp + ActionPtr) in a parallel
  /// array. Sift compares only touch the 8-byte dates — four children per
  /// cache line instead of two 32-byte entries — so the per-event heap
  /// traffic reads half the lines the old array-of-structs layout did; the
  /// 24-byte payloads move only when a compare decides a swap.
  ///
  /// Entries are never updated in place: rescheduling an action pushes a
  /// fresh entry and bumps the action's heap_stamp_, so older entries are
  /// recognized as stale and skipped when popped (lazy invalidation).
  /// Payloads hold a shared_ptr so a stale entry can never dangle.
  struct EventHeap {
    struct Payload {
      std::uint64_t stamp;
      ActionPtr action;
    };
    std::vector<double> dates;
    std::vector<Payload> payloads;
    /// Lower bound on the next *valid* entry's date (the root date, which a
    /// stale root can only understate; +inf when empty). The k-way shard
    /// scan reads only these cached heads — one dense pass, no payload or
    /// Action dereferences — and reaps just the winning heap.
    double head_lb = std::numeric_limits<double>::infinity();

    bool empty() const { return dates.empty(); }
    size_t size() const { return dates.size(); }
    double top_date() const { return dates.front(); }
    Payload& top() { return payloads.front(); }
    void push(double date, std::uint64_t stamp, ActionPtr action);
    void pop_front();
    void sift_down(size_t hole);
    void rebuild();
  };

  /// Per-shard event state: one far-future completion heap and one tiny
  /// near-term latency heap per shard, plus their stale-entry counts. An
  /// intra-zone event pushes/pops only in its own shard's (per-zone-sized,
  /// cache-resident) heaps.
  struct ShardEvents {
    EventHeap completion;
    size_t completion_stale = 0;
    EventHeap latency;
    size_t latency_stale = 0;
  };

  /// Cross-shard work a lane discovered during the parallel advance but must
  /// not perform itself (the action's solver variable spans shards, or the
  /// action belongs to another lane's shard). Processed serially, in (shard,
  /// discovery) order — failures first, honouring the tie-break above.
  struct DeferredOp {
    enum class Kind : std::uint8_t { kLatencyExpiry, kCompletion, kFailure };
    Kind kind;
    ActionPtr action;
  };

  /// One observer notification recorded during a parallel phase and fired
  /// from the serial epilogue (observers are user code: they must never run
  /// on a worker lane, nor concurrently with engine mutation).
  struct Notice {
    ActionPtr action;  ///< action transition when set; resource notice otherwise
    ActionState old_state = ActionState::kRunning;
    ActionState new_state = ActionState::kRunning;
    bool res_is_host = false;
    int res_index = -1;
    bool res_on = false;
  };

  /// Everything the engine keeps per shard. One lane owns a shard's state
  /// for the duration of a parallel phase; the alignment keeps two shards'
  /// hot heads off the same cache line.
  struct alignas(64) ShardState {
    ShardEvents events;
    /// Slot table of this shard's running actions (nullptr = free slot,
    /// recycled LIFO). Slots are never swapped, so finishing an action
    /// touches no other action's cache lines.
    std::vector<ActionPtr> running;
    std::vector<size_t> free_slots;
    size_t running_count = 0;
    /// Block recycler + name side table for this shard's actions: each lane
    /// allocates and frees only through its own shards' pools.
    std::shared_ptr<ActionBlockPool> pool;
    /// This shard's resources' availability/state trace events.
    std::priority_queue<TraceEvent, std::vector<TraceEvent>, std::greater<>> traces;
    // -- per-step scratch, written only by this shard's lane ---------------
    std::vector<ActionEvent> fired;      ///< events finished in this shard
    std::vector<DeferredOp> deferred;    ///< cross-shard ops for the epilogue
    std::vector<Notice> notices;         ///< observer calls to fire serially
    std::vector<ShardedMaxMin::VarId> released;  ///< ids for commit_released
    /// This shard is already on its lane's dirty list (tournament leaves to
    /// refresh). Written only by the shard's own lane or the maestro.
    bool heads_dirty = false;
  };

  /// Pop stale entries off a heap's top; returns its next valid date (kInf
  /// when empty) and leaves head_lb exact. O(stale + 1).
  static double reap_heap_top(EventHeap& heap, size_t& stale);
  /// Earliest valid entry within ONE shard's heaps (latency wins ties).
  static double shard_event_source(ShardEvents& se, EventHeap** out_heap, size_t** out_stale);
  /// Erase every stale completion-heap entry and restore the heap order.
  void compact_completion_heap(ShardEvents& se);

  /// Shard whose lane applies this trace event (the resource's shard).
  std::int32_t trace_shard(TraceEvent::Kind kind, int index) const;
  void schedule_trace_events();
  void schedule_next(const trace::Trace& trace, TraceEvent::Kind kind, int index, double after);
  /// Earliest pending trace date across shards (tournament tree over raw
  /// trace tops), clamped to >= now().
  double next_trace_time();

  /// Where a finish or failure is delivered (see the file comment).
  struct Delivery {
    /// Lane context: the shard whose lane runs the delivery — ids go to its
    /// `released` list, foreign victims to its `deferred` list. -1: serial
    /// context (ids released at once, nothing deferred).
    std::int32_t shard;
    std::vector<ActionEvent>* events;  ///< where finished actions are logged
    std::vector<Notice>* notices;      ///< recorded observer calls; null: inline
  };

  /// Phase body for one shard: apply due trace events (FIRST — the
  /// tie-break), then pop due heap entries; finish what is shard-local,
  /// defer the rest.
  void advance_shard(int shard, double target, double eps);
  /// Apply a trace event inside its shard's lane.
  void apply_trace_event(const Delivery& lane, const TraceEvent& ev);
  /// Up/down transition: adjust capacity and, on death, fail every victim
  /// found through the indexes (solver arena, sleep and endpoint lists),
  /// then notify the resource observer.
  void apply_host_state(const Delivery& d, int host, bool on);
  void apply_link_state(const Delivery& d, platform::LinkId link, bool on);
  /// Fail every action with a live solver variable on `cnst`. O(degree):
  /// victims come from the solver's element arena.
  void fail_constraint(const Delivery& d, ShardedMaxMin::CnstId cnst);
  /// Fail one victim: at once, unless a lane does not own its whole state
  /// (slot, variable, endpoint lists) — then it is deferred.
  void fail_one(const Delivery& d, ActionPtr action);
  /// Finish an action: release its variable, slot and index entries, then
  /// log the event and notify (inline or recorded, per `d`). Idempotent.
  void finish_action(const Delivery& d, ActionPtr action, ActionState final_state);
  /// A comm/ptask's latency phase is over: switch it to its data phase, and
  /// finish it when there is no data left (the caller owns its variable).
  void expire_latency(const Delivery& d, ActionPtr action);
  /// Serial: process the deferred cross-shard ops in fixed order (only the
  /// shards advanced this round can hold any).
  void process_deferred();
  /// Serial: commit released ids, publish the non-empty per-shard fired
  /// lists (fixed shard order, the epilogue's list last) as this round's
  /// zero-copy log segments, fire notices. Empty lists are skipped outright
  /// — a zero-event round publishes nothing.
  void gather_step_results();
  /// Drop the previous round's log: clear exactly the published buffers and
  /// the segment table. run_until() calls it before anything else.
  void release_step_log();
  /// Note that `shard`'s event heads (heap tops / trace top) may have
  /// changed; sync_head_trees() refreshes the tournament leaves lazily.
  /// Safe from the shard's own lane: each lane appends to its own list.
  void mark_heads_dirty(int shard);
  /// Serial: refresh the tournament leaves of every dirty shard.
  void sync_head_trees();

  /// Create runtime resource records (constraints, trace schedules) for every
  /// platform host/link the engine does not know yet — the shared bring-up
  /// tail of both join_host overloads. O(new resources).
  void adopt_new_resources();
  void refresh_host_capacity(int host);
  void refresh_link_capacity(platform::LinkId link);
  /// Register / swap-remove a comm in its endpoints' comm indexes.
  void endpoint_lists_add(const ActionPtr& action);
  void endpoint_list_remove(int host, std::uint32_t idx);
  ShardedMaxMin::CnstId loopback_constraint(int host);
  void notify(const Action& action, ActionState old_state, ActionState new_state);
  void fire_notice(const Notice& n);
  /// Bind a solver variable to its action so rate refreshes can find it.
  void bind_var(Action* action, ShardedMaxMin::VarId var);
  /// Register a freshly created action as running in its shard's slot table
  /// (the action's shard_ must already be set).
  void add_running(const ActionPtr& action);
  /// Store a custom display name in the action's shard's side table (no-op
  /// when `name` is empty or the kind's default — the common case pays
  /// nothing).
  void set_action_name(Action* action, std::string_view name);
  /// Re-solve sharing (incrementally — only components touched by a mutation
  /// are recomputed; uncoupled shards AND independent coupled groups fan out
  /// over the worker lanes), refresh the rates of the actions whose
  /// allocation changed, and reschedule exactly those in the completion
  /// heaps. Cheap no-op when nothing is dirty. `probe` (run_until's, or null
  /// from the introspection paths) collects fan-out occupancy.
  void share_resources(PhaseProbe* probe);
  /// Fold elapsed time into remaining_/latency_remaining_ using the rate
  /// that was in effect since the last sync. Must run before a rate change.
  void sync_progress(Action& a);
  /// Invalidate the action's current heap entry and push a fresh one at its
  /// completion date under current rates (no entry if that date is +inf).
  /// Assumes progress is already synced to now_.
  void schedule_completion(const ActionPtr& a);
  /// Mark the action's current heap entry (if any) stale via a stamp bump,
  /// keeping the stale-entry count for compaction accounting.
  void orphan_heap_entry(Action& a);
  /// Pop stale heap tops; returns the next valid completion date (kInf when
  /// none). O(stale + 1).
  double next_completion_date();
  /// Date at which the action will complete under current rates (kInf if
  /// suspended or starved). Assumes progress is synced to now_.
  double action_finish_date(const Action& a) const;

  platform::Platform platform_;
  ShardedMaxMin sys_;
  std::vector<HostRes> hosts_;
  std::vector<LinkRes> links_;
  /// Per-shard engine state (slots, heaps, pools, traces, gather buffers),
  /// indexed by Action::shard_ / the platform shard map.
  std::vector<ShardState> shards_;
  /// Action lookup by solver variable id, indexed by VarId (global across
  /// shards; nullptr when free). Shared between lanes, but every lane only
  /// reads/writes entries of variables homed in its own shards — cross-shard
  /// variables are never finished inside a parallel phase.
  std::vector<Action*> action_of_var_;
  /// Events produced outside run_until() (creation-time failures, explicit
  /// set_*_state, cancel): delivered by the next run_until() before time
  /// moves. Deliberately ONE global queue — it is only ever written from
  /// serialized contexts, and splitting it per shard would change the
  /// delivery order the unsharded engine established.
  std::vector<ActionEvent> pending_;
  std::vector<ActionEvent> events_;           ///< pending_ drain's returned storage
  std::vector<ActionEvent> deferred_events_;  ///< epilogue finishes, published last
  std::vector<Notice> deferred_notices_;
  /// The current round's zero-copy log: ordered non-empty segment views into
  /// the per-shard fired buffers (and deferred_events_ / events_), plus the
  /// ids of the shards whose buffers are published (-1 = not a shard buffer)
  /// so release_step_log() clears exactly those.
  std::vector<std::span<const ActionEvent>> log_segs_;
  std::vector<std::int32_t> log_owners_;
  size_t log_total_ = 0;
  /// Shards with a due trace or heap event this round, ascending — the
  /// advance fan-out and the epilogue iterate these instead of every shard.
  std::vector<std::int32_t> due_shards_;
  /// Per-lane scratch, cache-line separated: the shards whose event heads
  /// changed (tournament leaves to refresh) and the lane's slice of
  /// due_shards_ (bucketed by lane_of so each shard stays on its canonical
  /// lane even when few shards are due).
  struct alignas(64) LaneScratch {
    std::vector<std::int32_t> dirty;
    std::vector<std::int32_t> due;
  };
  std::vector<LaneScratch> lane_scratch_;
  /// Incremental target pick: tournament trees over the per-shard event
  /// heads. heap_tree_ has two leaves per shard (2s = latency head bound,
  /// 2s+1 = completion head bound — the leaf order IS the tie-break: lower
  /// shard first, latency beats completion at equal dates); trace_tree_ one
  /// leaf per shard holding the raw (unclamped) next trace date.
  TourneyTree heap_tree_;
  TourneyTree trace_tree_;
  bool profile_ = false;               ///< engine/profile snapshot
  std::unique_ptr<PhaseProbe> probe_;  ///< occupancy sink, only when profiling
  PhaseStats pstats_;
  std::unique_ptr<ShardWorkers> workers_;  ///< null when lanes_ == 1
  int lanes_ = 1;
  ActionObserver observer_;
  ResourceObserver resource_observer_;
  double now_ = 0;

  // model parameters (snapshotted from the config registry at construction)
  double tcp_gamma_;
  double bandwidth_factor_;
  double loopback_bw_;
  double loopback_lat_;
  bool kill_transit_comms_ = false;  ///< engine/kill-transit-comms snapshot
};

/// Register the engine's model parameters in the config registry with their
/// defaults (idempotent; engine construction calls it too).
void declare_engine_config();

}  // namespace sg::core
