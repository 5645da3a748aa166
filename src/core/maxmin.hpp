/// \file maxmin.hpp
/// The unifying MaxMin fairness model at the heart of SURF (paper:
/// "allocate as much capacity to all tasks in a way that maximizes the
/// minimum capacity allocation over all tasks").
///
/// The system consists of
///  * constraints — resources with a capacity C_c (CPU flop/s, link byte/s),
///  * variables   — activity rates v_i, optionally upper-bounded (b_i) and
///                  weighted (w_i, growth share / priority),
///  * elements    — "variable i consumes coeff * v_i of constraint c".
///
/// solve() computes the weighted max-min fair allocation by progressive
/// filling: all active variables grow proportionally to their weight until a
/// constraint saturates (shared) or a variable hits its bound; saturated
/// participants freeze and filling continues. Fatpipe (non-shared)
/// constraints cap each variable individually instead of dividing capacity —
/// the behaviour of an over-provisioned backbone.
///
/// The same solver is used for computation, communication, their
/// interference, and parallel tasks, exactly as the paper describes.
///
/// ## Solver internals: dirty sets and partial invalidation
///
/// Re-running progressive filling over the whole system on every state
/// change is O(constraints x elements x filling rounds) — the cost that kept
/// the original SURF from scaling. Instead, the system tracks *dirtiness* at
/// the granularity of individual variables and constraints:
///
///  * every mutation (new_variable, expand, release_variable, set_weight,
///    set_bound, set_capacity) marks the touched variable/constraint dirty —
///    no-op mutations (setting a value to itself) mark nothing;
///  * solve() computes the transitive closure of the dirty seeds over the
///    bipartite variable-constraint graph. Because the max-min allocation of
///    a connected component is independent of every other component, this
///    closure is exactly the union of the components whose allocation can
///    have changed;
///  * progressive filling then runs restricted to that closure. Allocations
///    of untouched components are left frozen, so the per-event cost is
///    O(affected variables' incidences + filling rounds x affected shared
///    incidences), not O(whole system). A fatpipe caps its users one by one,
///    so its cap is read from each affected variable's own incidence list,
///    never from the fatpipe's user list: a backbone shared by thousands of
///    flows costs a churn solve nothing beyond the churned flow's entry.
///    Each round walks each affected shared constraint once for its demand
///    (kept for the capacity update) and once more only if it saturates.
///    SolveStats::incidences_visited counts these walks;
///  * when the closure covers more than half of the live variables, solve()
///    falls back to solve_full() — the from-scratch path, also available
///    directly for equivalence testing;
///  * changed_variables() reports which allocations moved in the last
///    solve(), letting callers (the SURF engine) refresh only those rates.
///
/// The decomposition is sound because progressive filling has a unique fixed
/// point (the weighted max-min fair allocation), and disjoint components
/// share no constraint: filling them together or separately yields the same
/// allocation.
///
/// ## Data layout: element arena and SoA hot fields
///
/// At scale the solver is memory-bound, not compute-bound: a churn event
/// touches a handful of variables/constraints, and the cost is dominated by
/// the cache lines those touches pull in. The layout is therefore organized
/// around density and reuse rather than around per-object encapsulation:
///
///  * **Element arena.** The incidence lists (which variables sit on a
///    constraint; which constraints a variable crosses) are not per-object
///    `std::vector`s but unrolled linked lists of 4-entry nodes living in one
///    shared, chunked arena. A node packs 4 (peer id, coefficient) pairs in
///    56 bytes; a list is a chain of node indices. Since the common
///    exec/comm case has degree <= 4 (one CPU, or a couple of route links),
///    the fast path is a single node — one pointer chase, one cache line.
///    Nodes are recycled through an index-linked free list, so steady-state
///    churn re-uses the same (cache-hot) lines instead of walking the heap
///    allocator. Chunks (256 nodes, ~14 KiB) give address stability without
///    vector-growth copies.
///  * **SoA hot fields.** The fields progressive filling actually reads per
///    round (`value`, `weight`, `bound`, `active`, per-constraint
///    `remaining`) are parallel arrays indexed by id, scanned linearly in
///    solve_subset; cold metadata does not share their cache lines.
///  * **Id recycling.** Variable *and* constraint ids are recycled through
///    free lists (release_variable / release_constraint), keeping the id
///    space — and with it every parallel array — dense under churn.
///
/// Invariants the arena maintains:
///  * element lists contain only live peers: release_variable eagerly
///    removes the variable's entries from every constraint list it was on
///    (and release_constraint symmetrically), so a recycled id can never
///    revive a stale element;
///  * an (var, cnst) incidence appears exactly once per expand() call —
///    expanding twice yields two entries, matching the additive consumption
///    semantics of the old layout;
///  * the per-id degree counters track live entries, so degree introspection
///    is O(1) and the engine can reach "all actions on a failed resource"
///    in O(degree) via for_each_variable_on().
///
/// ## ShardedMaxMin: per-zone solver shards with a backbone coupling layer
///
/// A single MaxMinSystem keeps every zone's variables and constraints in the
/// same id space, the same SoA arrays, and the same arena. The incremental
/// closure already makes a churn event O(affected component), but at 100k+
/// hosts the *memory* is shared: every zone's hot ids interleave in the same
/// arrays, so an intra-zone event pulls cache lines sized by the whole
/// platform. ShardedMaxMin splits the system into independent MaxMinSystem
/// shards — one per sealed zone plus shard 0, the *backbone* shard, holding
/// everything that is not zone-interior (WAN fat pipes, gateway links,
/// unzoned resources) — behind a façade that speaks global ids.
///
/// Invariants (the sharded ≡ global property sweeps pin these down):
///
///  * **Constraint placement.** Every constraint lives in exactly one shard,
///    chosen at creation (the engine takes it from the platform's shard map).
///  * **Variable replicas.** A variable lives in every shard a constraint of
///    its route lives in. Single-shard variables (the overwhelming majority:
///    intra-zone flows, execs, zone-local ptasks) are one local variable in
///    their shard. A cross-shard variable is a set of *replicas*, one local
///    variable per touched shard, each flagged kFlagLinked and each carrying
///    the shard-local incidences. Replicas always agree on weight and bound,
///    and after every solve() they agree exactly on value.
///  * **Local solves stay local.** A dirty closure that reaches no linked
///    replica is solved entirely inside its shard: no other shard's arrays
///    are read, written, or even looked at. This is what makes intra-zone
///    per-event cost independent of the total platform size.
///  * **Coupled groups solve jointly.** When a closure reaches a linked
///    replica, its sibling replicas are seeded dirty in their shards and the
///    closures are re-collected to a fixpoint; the union of the coupled
///    shards' closures is then solved by one cross-shard progressive-filling
///    pass (solve_group) that treats the replicas of a logical variable as a
///    single activity: it grows once per round (replicas apply the identical
///    delta * weight update, so their values stay bitwise equal), its
///    effective bound folds every shard's fatpipe caps, and freezing any
///    replica freezes all of them (copying the freezing replica's value so
///    no epsilon dust can split them). Progressive filling has a unique
///    fixed point, so the group pass computes exactly what one global system
///    would — the equivalence suites assert rates, completion order, and
///    clocks to 1e-9 against an unsharded engine.
///  * **Backbone locality.** Zone-interior churn never links (its routes
///    stay inside one shard), so only cross-zone flows — which all cross a
///    backbone-shard constraint — can couple shards, and the coupling set is
///    exactly the shards their routes touch.
///  * **Detached variables** (created but not yet expanded) belong to no
///    shard; solve() gives them the unconstrained allocation directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace sg::core {

class ShardWorkers;
struct PhaseProbe;

class MaxMinSystem {
public:
  using VarId = int;
  using CnstId = int;
  static constexpr double kNoBound = -1.0;
  /// Rate assigned to a variable that no constraint or bound restricts.
  static constexpr double kUnlimited = 1e30;

  /// Create a resource constraint. `shared`: capacity divided among users;
  /// otherwise each user is individually capped (fatpipe).
  CnstId new_constraint(double capacity, bool shared = true);

  /// Release a constraint: its caps/shares disappear and every variable that
  /// was on it is freed to grow. The id is recycled by a later
  /// new_constraint. No-op when already released.
  void release_constraint(CnstId cnst);

  /// Create an activity variable. weight > 0 makes it active (its allocation
  /// grows proportionally to weight); weight == 0 suspends it (allocation 0).
  VarId new_variable(double weight, double bound = kNoBound);

  /// Declare that variable consumes `coeff` units of `cnst` per unit of rate.
  /// Throws xbt::InvalidArgument on an out-of-range id or a released
  /// variable/constraint.
  void expand(CnstId cnst, VarId var, double coeff = 1.0);

  /// Release a variable (its consumption disappears from all constraints).
  void release_variable(VarId var);

  void set_capacity(CnstId cnst, double capacity);
  double capacity(CnstId cnst) const;
  void set_weight(VarId var, double weight);
  double weight(VarId var) const;
  void set_bound(VarId var, double bound);
  double bound(VarId var) const;

  /// Allocation computed by the last solve().
  double value(VarId var) const;

  /// Total consumption of a constraint under the last solution
  /// (sum for shared constraints, max for fatpipe).
  double usage(CnstId cnst) const;

  /// Number of live (not released) variables.
  size_t variable_count() const { return live_vars_; }
  /// Number of live (not released) constraints.
  size_t constraint_count() const { return live_cnsts_; }

  /// Live entries on a constraint / live constraints under a variable (an id
  /// expanded twice on the same constraint counts twice).
  size_t constraint_degree(CnstId cnst) const;
  size_t variable_degree(VarId var) const;

  /// Visit every (constraint, coeff) incidence of a live variable. This is
  /// the engine's replacement for keeping its own per-action constraint
  /// list: the arena already has it.
  template <typename Fn>
  void for_each_constraint_of(VarId var, Fn&& fn) const {
    for (std::int32_t n = var_link_[static_cast<size_t>(var)].head; n != kNoNode; n = node(n).next) {
      const ElemNode& nd = node(n);
      for (std::int32_t k = 0; k < nd.count; ++k)
        fn(static_cast<CnstId>(nd.id[k]), nd.coeff[k]);
    }
  }

  /// Visit every (variable, coeff) incidence on a live constraint — the
  /// cnst -> users index failure propagation runs on. O(degree). The
  /// callback must not mutate the system; collect first, then mutate.
  template <typename Fn>
  void for_each_variable_on(CnstId cnst, Fn&& fn) const {
    for (std::int32_t n = cnst_core_[static_cast<size_t>(cnst)].head; n != kNoNode; n = node(n).next) {
      const ElemNode& nd = node(n);
      for (std::int32_t k = 0; k < nd.count; ++k)
        fn(static_cast<VarId>(nd.id[k]), nd.coeff[k]);
    }
  }

  /// Run progressive filling incrementally: only the connected components
  /// touched by a mutation since the last solve are recomputed; untouched
  /// allocations stay frozen. Idempotent between modifications.
  void solve();

  /// Recompute every allocation from scratch (the incremental path falls
  /// back to this when most of the system is dirty; tests use it to check
  /// incremental ≡ full).
  void solve_full();

  /// Whether escalating the collected closure to solve_full() is a win:
  /// false when the arena sweep it implies dwarfs the closure (sparse arena
  /// after churn or mass completions).
  bool full_solve_profitable() const;

  /// True when a mutation since the last solve may have changed allocations.
  bool needs_solve() const {
    return full_solve_pending_ || !dirty_vars_.empty() || !dirty_cnsts_.empty();
  }

  /// Variables whose allocation changed in the last solve()/solve_full().
  /// Valid until the next solve.
  const std::vector<VarId>& changed_variables() const { return changed_vars_; }

  /// Counters for observing the incremental behaviour (tests/benches).
  struct SolveStats {
    size_t solves = 0;        ///< solve() calls that had dirty work to do
    size_t full_solves = 0;   ///< of which ran the from-scratch path
    size_t vars_visited = 0;  ///< cumulative size of the re-solved subsets
    /// Incidence-list entries read by closure collection and filling (a
    /// walk adds the list's degree): the solver's work counter.
    size_t incidences_visited = 0;
  };
  const SolveStats& solve_stats() const { return stats_; }

  /// Footprint introspection (tests / the memory-tracking bench metrics).
  struct MemoryStats {
    size_t live_variables = 0;
    size_t live_constraints = 0;
    size_t arena_nodes_in_use = 0;     ///< nodes currently on some list
    size_t arena_nodes_allocated = 0;  ///< nodes ever created (>= in_use)
    size_t arena_bytes = 0;            ///< bytes held by arena chunks
    size_t soa_bytes = 0;              ///< bytes held by the parallel arrays
    size_t total_bytes() const { return arena_bytes + soa_bytes; }
  };
  MemoryStats memory_stats() const;

 private:
  friend class ShardedMaxMin;

  // -- element arena ---------------------------------------------------------
  static constexpr std::int32_t kNoNode = -1;
  static constexpr std::int32_t kNodeEntries = 4;  ///< degree <= 4 fast path
  struct ElemNode {
    std::int32_t count;             ///< live entries in this node
    std::int32_t next;              ///< next node of the list (or free list)
    std::int32_t id[kNodeEntries];  ///< peer id: var ids on a constraint's
                                    ///< list, cnst ids on a variable's list
    double coeff[kNodeEntries];
  };
  static constexpr size_t kChunkShift = 8;
  static constexpr size_t kChunkNodes = size_t{1} << kChunkShift;  ///< 256 nodes / ~14 KiB

  ElemNode& node(std::int32_t i) {
    return chunks_[static_cast<size_t>(i) >> kChunkShift][static_cast<size_t>(i) & (kChunkNodes - 1)];
  }
  const ElemNode& node(std::int32_t i) const {
    return chunks_[static_cast<size_t>(i) >> kChunkShift][static_cast<size_t>(i) & (kChunkNodes - 1)];
  }
  std::int32_t alloc_node();
  void free_node(std::int32_t n);
  /// Append one (peer, coeff) entry to the list rooted at `head`.
  void list_insert(std::int32_t& head, std::int32_t peer, double coeff);
  /// Remove every entry whose id == peer; returns how many were removed.
  std::int32_t list_remove_all(std::int32_t& head, std::int32_t peer);
  /// Free the whole chain and reset head to kNoNode.
  void list_free(std::int32_t& head);

  void check_var(VarId var, const char* what) const;
  void check_cnst(CnstId cnst, const char* what) const;

  void mark_var_dirty(VarId var);
  /// need_traverse: the change affects users beyond the dirtied variable
  /// itself (capacity moved). Shared constraints always traverse.
  void mark_cnst_dirty(CnstId cnst, bool need_traverse);

  // -- affected-closure collection -------------------------------------------
  // solve() and the sharded group solve share this machinery. A closure
  // "epoch" starts at the first closure_collect() after a commit; repeated
  // collects *extend* the affected sets with the closure of whatever dirty
  // seeds accumulated since (ShardedMaxMin seeds sibling replicas between
  // rounds), and closure_commit() clears the in-set markers. kFlagInSet
  // marks membership; kFlagTraverse doubles as the "users already queued"
  // marker during the epoch (it is free then: the dirty seeds that use it
  // are consumed at the start of each collect).
  bool closure_pending() const {
    return full_solve_pending_ || !dirty_vars_.empty() || !dirty_cnsts_.empty();
  }
  void closure_collect();
  void closure_commit();
  void closure_add_var(VarId v);
  void closure_add_cnst(CnstId c, bool traverse);

  /// Progressive filling restricted to the given variables/constraints.
  /// Every live variable of a listed shared constraint, and every
  /// constraint of a listed variable, must be listed too (a closure is).
  void solve_subset(const std::vector<VarId>& svars, const std::vector<CnstId>& scnsts);

  // The steps of one filling pass over a subset, shared with the sharded
  // group solve. fill_begin resets the subset (values, active bits,
  // effective bounds with fatpipe caps, remaining capacities) and returns
  // the number of active variables not flagged kFlagLinked. Each round then
  // runs fill_room (one walk per shared constraint; returns min(delta, the
  // subset's growth room) and records each demand in round_demand_),
  // fill_grow, and fill_freeze (calls freeze(var index) for every user of a
  // saturated shared constraint and every variable at its bound; freeze
  // must ignore inactive variables).
  size_t fill_begin(const std::vector<VarId>& svars, const std::vector<CnstId>& scnsts);
  double fill_room(const std::vector<VarId>& svars, const std::vector<CnstId>& scnsts, double delta);
  void fill_unlimited(const std::vector<VarId>& svars);
  void fill_grow(const std::vector<VarId>& svars, const std::vector<CnstId>& scnsts, double delta);
  template <typename Freeze>
  void fill_freeze(const std::vector<VarId>& svars, const std::vector<CnstId>& scnsts, Freeze&& freeze);

  // -- arena storage ---------------------------------------------------------
  std::vector<std::unique_ptr<ElemNode[]>> chunks_;
  std::int32_t free_nodes_ = kNoNode;  ///< index-linked through ElemNode::next
  std::int32_t arena_size_ = 0;        ///< nodes ever created
  size_t nodes_in_use_ = 0;

  // Per-id bookkeeping bits, one byte per id: the dirty/in-set/alive/active
  // states are always consulted together on the hot path, so packing them
  // costs one cache line per id instead of four.
  static constexpr unsigned char kFlagAlive = 1;
  static constexpr unsigned char kFlagDirty = 2;
  static constexpr unsigned char kFlagInSet = 4;
  static constexpr unsigned char kFlagActive = 8;    ///< vars: still growing in solve
  static constexpr unsigned char kFlagTraverse = 8;  ///< cnsts: closure must reach users
  static constexpr unsigned char kFlagShared = 16;   ///< cnsts: capacity is divided
  static constexpr unsigned char kFlagLinked = 32;   ///< vars: replica of a cross-shard variable

  // -- constraint storage (indexed by CnstId) --------------------------------
  /// Capacity + arena list head + degree, fused: the solver always reads
  /// them together, and four constraints share a cache line.
  struct CnstCore {
    double capacity;
    std::int32_t head;    ///< arena list of users
    std::int32_t degree;  ///< live entries on that list
  };
  std::vector<CnstCore> cnst_core_;
  std::vector<unsigned char> cnst_flags_;
  std::vector<CnstId> free_cnsts_;
  size_t live_cnsts_ = 0;

  // -- variable storage: hot solve fields as SoA (indexed by VarId) ----------
  std::vector<double> var_weight_;
  std::vector<double> var_bound_;
  std::vector<double> var_value_;
  std::vector<unsigned char> var_flags_;
  struct VarLink {
    std::int32_t head;    ///< arena list of constraints
    std::int32_t degree;  ///< live entries on that list
  };
  std::vector<VarLink> var_link_;
  std::vector<VarId> free_vars_;
  size_t live_vars_ = 0;

  // -- dirty tracking --------------------------------------------------------
  std::vector<VarId> dirty_vars_;
  std::vector<CnstId> dirty_cnsts_;
  bool full_solve_pending_ = true;  ///< first solve is always full
  std::vector<VarId> changed_vars_;
  SolveStats stats_;

  // -- persistent scratch (reset only for the affected subset, so that an
  //    incremental solve never pays O(system size)) --------------------------
  std::vector<VarId> affected_vars_;
  std::vector<CnstId> affected_cnsts_;
  std::vector<CnstId> traverse_list_;  ///< closure: cnsts whose users must be added
  bool closure_open_ = false;
  bool closure_was_full_ = false;  ///< this epoch covered everything (first solve)
  size_t closure_vi_ = 0;  ///< worklist cursor into affected_vars_
  size_t closure_ti_ = 0;  ///< worklist cursor into traverse_list_
  std::vector<double> effective_bound_;
  std::vector<double> remaining_;
  std::vector<double> old_values_;        ///< parallel to the subset list
  /// Parallel to the subset's constraint list: a shared constraint's active
  /// demand this round, or -1 when it had no active user ("has an active
  /// user" is kept apart from demand > 0, which an underflowing product
  /// could clear).
  std::vector<double> round_demand_;
};

/// Façade over per-shard MaxMinSystem instances (see the header comment for
/// the invariants). Speaks global ids: the engine and tests use it exactly
/// like a MaxMinSystem, plus a shard argument on new_constraint_in(). With
/// one shard it degenerates to a single global system (the equivalence
/// baseline and the behaviour of unzoned platforms).
class ShardedMaxMin {
public:
  using VarId = MaxMinSystem::VarId;
  using CnstId = MaxMinSystem::CnstId;
  using ShardId = std::int32_t;
  static constexpr double kNoBound = MaxMinSystem::kNoBound;
  static constexpr double kUnlimited = MaxMinSystem::kUnlimited;
  /// Shard 0 holds everything that is not zone-interior: WAN fat pipes,
  /// gateway links, unzoned hosts. It is the only shard a cross-zone flow is
  /// guaranteed to touch.
  static constexpr ShardId kBackboneShard = 0;
  /// home_shard() results for variables that live in no single shard.
  static constexpr ShardId kDetachedShard = -1;  ///< no replica yet
  static constexpr ShardId kMultiShard = -2;     ///< replicas in several shards

  explicit ShardedMaxMin(int shard_count = 1);

  /// Re-shape the shard set; only legal while no constraint or variable
  /// exists (the engine sizes shards from the platform map up front).
  void init_shards(int shard_count);
  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Create a constraint in the backbone shard (MaxMinSystem-compatible).
  CnstId new_constraint(double capacity, bool shared = true) {
    return new_constraint_in(kBackboneShard, capacity, shared);
  }
  /// Create a constraint in a specific shard.
  CnstId new_constraint_in(ShardId shard, double capacity, bool shared = true);
  void release_constraint(CnstId cnst);
  ShardId shard_of_constraint(CnstId cnst) const;

  VarId new_variable(double weight, double bound = kNoBound);
  /// Registers the variable in the constraint's shard (creating a linked
  /// replica when that is a new shard for the variable), then expands there.
  void expand(CnstId cnst, VarId var, double coeff = 1.0);
  void release_variable(VarId var);

  /// Owning shard of a live variable: a shard id, kDetachedShard, or
  /// kMultiShard. O(1). The engine's parallel stepping routes on this:
  /// single-shard variables are finished inside their shard's lane,
  /// cross-shard ones are deferred to the serial epilogue.
  ShardId home_shard(VarId var) const { return vars_[static_cast<size_t>(var)].shard; }

  /// The shard-local half of release_variable(), for a variable whose
  /// replicas live in ONE shard (or nowhere): detaches it from its shard and
  /// kills the record, but does NOT recycle the global id. Safe to call
  /// concurrently for variables homed in different shards. Each released id
  /// must be handed to commit_released() (serially, in a deterministic
  /// order) before the id may be reused; throws on a kMultiShard variable.
  void release_variable_local(VarId var);
  /// Serial epilogue of release_variable_local(): recycle the ids.
  void commit_released(const VarId* ids, size_t count);

  void set_capacity(CnstId cnst, double capacity);
  double capacity(CnstId cnst) const;
  void set_weight(VarId var, double weight);
  double weight(VarId var) const;
  void set_bound(VarId var, double bound);
  double bound(VarId var) const;
  double value(VarId var) const;
  double usage(CnstId cnst) const;

  size_t variable_count() const { return live_vars_; }
  size_t constraint_count() const { return live_cnsts_; }
  size_t constraint_degree(CnstId cnst) const;
  size_t variable_degree(VarId var) const;
  /// Number of shards the variable currently has replicas in (0 = detached).
  int variable_shard_span(VarId var) const;

  /// Visit every (variable, coeff) incidence on a live constraint, with
  /// global variable ids (the engine's failure-propagation index).
  template <typename Fn>
  void for_each_variable_on(CnstId cnst, Fn&& fn) const {
    const CnstRec& c = cnsts_[static_cast<size_t>(cnst)];
    shards_[static_cast<size_t>(c.shard)].for_each_variable_on(
        c.local, [&](MaxMinSystem::VarId lv, double coeff) {
          fn(var_global_[static_cast<size_t>(c.shard)][static_cast<size_t>(lv)], coeff);
        });
  }

  /// Visit every (constraint, coeff) incidence of a live variable, with
  /// global constraint ids, across all of its replicas.
  template <typename Fn>
  void for_each_constraint_of(VarId var, Fn&& fn) const {
    for_each_replica(vars_[static_cast<size_t>(var)], [&](Replica rp) {
      shards_[static_cast<size_t>(rp.shard)].for_each_constraint_of(
          rp.local, [&](MaxMinSystem::CnstId lc, double coeff) {
            fn(cnst_global_[static_cast<size_t>(rp.shard)][static_cast<size_t>(lc)], coeff);
          });
    });
  }

  /// Solve only the dirty shards: shard-local incremental solves for
  /// uncoupled closures, one joint progressive-filling pass per coupled
  /// group. Coupled shards are partitioned (union-find over each linked
  /// variable's replica shards) into independent groups that touch disjoint
  /// shard sets, so with `workers` the uncoupled solves AND the group solves
  /// all fan out across the worker lanes; the dirty-closure fixpoint, the
  /// partition, and the changed-id aggregation stay serial, so the result
  /// (including the order of changed_variables()) is identical at every lane
  /// count. With `probe`, the fan-out's wall and per-lane busy times are
  /// recorded (serial fallback counts as lane 0).
  void solve(ShardWorkers* workers = nullptr, PhaseProbe* probe = nullptr);
  /// Recompute everything from scratch (equivalence testing).
  void solve_full();
  bool needs_solve() const;
  /// Global ids of the variables whose allocation changed in the last
  /// solve(); each cross-shard variable is reported once.
  const std::vector<VarId>& changed_variables() const { return changed_vars_; }

  /// Aggregated over shards (plus detached handling); per-shard stats are
  /// reachable through shard().
  MaxMinSystem::SolveStats solve_stats() const;
  /// Cross-shard joint solves run so far (0 as long as no closure ever
  /// reached a linked replica — the intra-zone locality check).
  size_t group_solve_count() const { return group_solves_; }
  MaxMinSystem::MemoryStats memory_stats() const;
  /// Read-only view of one shard (per-shard stats and footprint).
  const MaxMinSystem& shard(ShardId s) const { return shards_[static_cast<size_t>(s)]; }

private:
  static constexpr ShardId kDetached = kDetachedShard;  ///< no replica yet
  static constexpr ShardId kMulti = kMultiShard;        ///< replicas listed in multi_

  struct Replica {
    ShardId shard;
    MaxMinSystem::VarId local;
  };
  struct VarRec {
    double weight = 0;
    double bound = kNoBound;
    double detached_value = 0;       ///< allocation while no replica exists
    ShardId shard = kDetached;       ///< owning shard, kMulti, or kDetached
    MaxMinSystem::VarId local = -1;  ///< local id when shard >= 0
    std::int32_t multi = -1;         ///< index into multi_ when shard == kMulti
    bool alive = false;
    bool in_group = false;  ///< scratch: already listed in group_linked_
  };
  struct CnstRec {
    ShardId shard = -1;  ///< < 0: id is free
    MaxMinSystem::CnstId local = -1;
  };

  template <typename Fn>
  void for_each_replica(const VarRec& r, Fn&& fn) const {
    if (r.shard >= 0) {
      fn(Replica{r.shard, r.local});
    } else if (r.shard == kMulti) {
      for (const Replica& rp : multi_[static_cast<size_t>(r.multi)])
        fn(rp);
    }
  }

  void check_var(VarId var, const char* what) const;
  void check_cnst(CnstId cnst, const char* what) const;
  /// Create the variable's replica in `shard` (local var with the shared
  /// weight/bound; kFlagLinked when the variable spans several shards).
  MaxMinSystem::VarId make_replica(VarId var, ShardId shard, bool linked);
  /// Replica of `var` in `shard`, created (and cross-linked) if absent.
  MaxMinSystem::VarId replica_in(VarId var, ShardId shard);

  /// One independent coupled group: shards reachable from each other through
  /// linked replicas (in discovery order), plus the linked logical vars whose
  /// replicas all live inside the group. Groups touch disjoint shard sets,
  /// so solve_group() runs concurrently for different groups.
  struct Group {
    std::vector<ShardId> shards;
    std::vector<VarId> linked;
  };
  /// Joint progressive filling over one group (closures already collected
  /// and committed). Writes only the group's shards; safe to run in
  /// parallel with other groups and with uncoupled shard-local solves.
  void solve_group(Group& gr);

  /// Conservative per-shard dirty mark — every façade mutation that can make
  /// a shard need solving sets its byte. solve() double-checks the shard's
  /// own needs_solve(), so over-marking is harmless; the byte map keeps
  /// needs_solve()/solve() from touching every MaxMinSystem each round.
  /// Distinct bytes are distinct memory locations, so engine lanes marking
  /// their own shards concurrently is race-free.
  void mark_shard(ShardId s) { shard_dirty_[static_cast<size_t>(s)] = 1; }

  std::vector<MaxMinSystem> shards_;
  std::vector<std::vector<VarId>> var_global_;    ///< [shard][local var] -> global id
  std::vector<std::vector<CnstId>> cnst_global_;  ///< [shard][local cnst] -> global id
  /// Live linked replicas per shard. A shard hosting any may only solve the
  /// collected closure, never escalate to a whole-shard solve_full(): the
  /// escalation would recompute linked replicas the closure never reached —
  /// locally, without their sibling shards — and their values would diverge.
  std::vector<size_t> shard_linked_;

  std::vector<VarRec> vars_;
  std::vector<VarId> free_var_ids_;
  std::vector<CnstRec> cnsts_;
  std::vector<CnstId> free_cnst_ids_;
  std::vector<std::vector<Replica>> multi_;  ///< replica lists of cross-shard vars
  std::vector<std::int32_t> free_multi_;
  size_t live_vars_ = 0;
  size_t live_cnsts_ = 0;

  std::vector<VarId> detached_dirty_;  ///< detached vars touched since last solve
  std::vector<VarId> changed_vars_;
  size_t group_solves_ = 0;

  // -- per-solve scratch (sized shard_count once) ----------------------------
  static constexpr unsigned char kShardOpen = 1;     ///< closure being collected
  static constexpr unsigned char kShardCoupled = 2;  ///< closure reached a linked replica
  std::vector<ShardId> open_;
  std::vector<ShardId> uncoupled_;          ///< open shards with no linked replica reached
  std::vector<ShardId> coupled_;            ///< open shards whose closure hit a linked replica
  std::vector<size_t> scan_pos_;            ///< per shard: linked-scan cursor
  std::vector<unsigned char> shard_flags_;  ///< per shard: kShardOpen | kShardCoupled
  std::vector<unsigned char> shard_dirty_;  ///< per shard: touched since last solve
  std::vector<VarId> group_linked_;         ///< logical linked vars across all groups
  std::vector<Group> groups_;               ///< pooled group storage, n_groups_ live
  size_t n_groups_ = 0;
  std::vector<ShardId> uf_parent_;          ///< union-find scratch over coupled_
  std::vector<std::int32_t> group_slot_;    ///< per shard: root -> group index
};

}  // namespace sg::core
