/// Tests for the MaxMin fairness solver — the heart of SURF. Includes
/// parameterized property sweeps checking feasibility and max-min optimality
/// on random systems.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/maxmin.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"

namespace {

using sg::core::MaxMinSystem;

TEST(MaxMin, SingleVariableGetsFullCapacity) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(v), 100.0);
  EXPECT_DOUBLE_EQ(sys.usage(c), 100.0);
}

TEST(MaxMin, EqualSharing) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(90.0);
  std::vector<MaxMinSystem::VarId> vars;
  for (int i = 0; i < 3; ++i) {
    auto v = sys.new_variable(1.0);
    sys.expand(c, v);
    vars.push_back(v);
  }
  sys.solve();
  for (auto v : vars)
    EXPECT_NEAR(sys.value(v), 30.0, 1e-9);
}

TEST(MaxMin, WeightedSharing) {
  // Weights act as growth shares: w=2 gets twice the allocation of w=1.
  MaxMinSystem sys;
  auto c = sys.new_constraint(90.0);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(2.0);
  sys.expand(c, v1);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 30.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 60.0, 1e-9);
}

TEST(MaxMin, BoundCapsAllocation) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v1 = sys.new_variable(1.0, /*bound=*/10.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 10.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 90.0, 1e-9);  // leftover goes to the unbounded one
}

TEST(MaxMin, ZeroWeightSuspended) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v1 = sys.new_variable(0.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(v1), 0.0);
  EXPECT_NEAR(sys.value(v2), 100.0, 1e-9);
}

TEST(MaxMin, BottleneckChain) {
  // v1 crosses both constraints; v2 only the wide one. v1 is limited by the
  // narrow constraint, and v2 picks up the slack on the wide one.
  MaxMinSystem sys;
  auto narrow = sys.new_constraint(10.0);
  auto wide = sys.new_constraint(100.0);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(narrow, v1);
  sys.expand(wide, v1);
  sys.expand(wide, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 10.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 90.0, 1e-9);
}

TEST(MaxMin, FatpipeCapsIndividually) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(50.0, /*shared=*/false);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.expand(c, v2);
  sys.solve();
  // Each flow gets the full capacity: a fatpipe does not divide.
  EXPECT_NEAR(sys.value(v1), 50.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 50.0, 1e-9);
  EXPECT_NEAR(sys.usage(c), 50.0, 1e-9);  // usage is the max, not the sum
}

TEST(MaxMin, CoefficientScalesConsumption) {
  // v consumes 2 units of c per unit of rate -> rate capped at cap/2.
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v, 2.0);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 50.0, 1e-9);
}

TEST(MaxMin, MultiResourceParallelTaskCoupling) {
  // One variable consuming two constraints with different coefficients is
  // limited by the tightest ratio — the L07 parallel-task situation.
  MaxMinSystem sys;
  auto cpu = sys.new_constraint(1000.0);
  auto link = sys.new_constraint(10.0);
  auto v = sys.new_variable(1.0);
  sys.expand(cpu, v, 100.0);  // 100 flops per unit of progress
  sys.expand(link, v, 5.0);   // 5 bytes per unit of progress
  sys.solve();
  // cpu allows 10 units/s; link allows 2 units/s -> 2.
  EXPECT_NEAR(sys.value(v), 2.0, 1e-9);
}

TEST(MaxMin, ReleaseVariableFreesCapacity) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 50.0, 1e-9);
  sys.release_variable(v1);
  sys.solve();
  EXPECT_NEAR(sys.value(v2), 100.0, 1e-9);
  EXPECT_EQ(sys.variable_count(), 1u);
}

TEST(MaxMin, VariableIdReuse) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(10.0);
  auto v1 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.release_variable(v1);
  auto v2 = sys.new_variable(1.0);  // recycles the slot
  EXPECT_EQ(v1, v2);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v2), 10.0, 1e-9);
}

TEST(MaxMin, RecycledVariableDoesNotReviveOldElements) {
  // Regression: release used to leave the released variable's elements in the
  // constraint (lazy compaction). When the id was recycled by a variable on a
  // *different* constraint, the stale element re-attached the new variable to
  // the old constraint as a phantom flow.
  MaxMinSystem sys;
  auto c1 = sys.new_constraint(90.0);
  auto other = sys.new_constraint(10.0);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(1.0);
  auto v3 = sys.new_variable(1.0);
  sys.expand(c1, v1);
  sys.expand(c1, v2);
  sys.expand(c1, v3);
  sys.solve();
  sys.release_variable(v3);  // 1 dead of 3: lazy compaction would not fire
  auto v4 = sys.new_variable(1.0);
  ASSERT_EQ(v4, v3);  // the id is recycled...
  sys.expand(other, v4);  // ...but onto an unrelated constraint
  sys.solve_full();
  EXPECT_NEAR(sys.value(v1), 45.0, 1e-9);  // c1 shared by v1/v2 only
  EXPECT_NEAR(sys.value(v2), 45.0, 1e-9);
  EXPECT_NEAR(sys.value(v4), 10.0, 1e-9);
  EXPECT_NEAR(sys.usage(c1), 90.0, 1e-9);
}

TEST(MaxMin, ZeroCapacityConstraint) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(0.0);  // failed resource
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(v), 0.0);
}

TEST(MaxMin, UnconstrainedVariableGetsHugeRate) {
  MaxMinSystem sys;
  auto v = sys.new_variable(1.0);
  sys.solve();
  EXPECT_GE(sys.value(v), MaxMinSystem::kUnlimited);
}

TEST(MaxMin, UnboundedVariableWithOnlyFatpipe) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(42.0, /*shared=*/false);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 42.0, 1e-9);
}

TEST(MaxMin, InvalidArguments) {
  MaxMinSystem sys;
  EXPECT_THROW(sys.new_constraint(-1.0), sg::xbt::InvalidArgument);
  EXPECT_THROW(sys.new_variable(-1.0), sg::xbt::InvalidArgument);
  auto c = sys.new_constraint(1.0);
  auto v = sys.new_variable(1.0);
  EXPECT_THROW(sys.expand(c, v, 0.0), sg::xbt::InvalidArgument);
}

TEST(MaxMin, ExpandRejectsBadIds) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(10.0);
  auto v = sys.new_variable(1.0);
  // Out-of-range ids (both signs) throw the xbt exception, not std::out_of_range.
  EXPECT_THROW(sys.expand(c + 1, v), sg::xbt::Exception);
  EXPECT_THROW(sys.expand(-1, v), sg::xbt::Exception);
  EXPECT_THROW(sys.expand(c, v + 1), sg::xbt::Exception);
  EXPECT_THROW(sys.expand(c, -1), sg::xbt::Exception);
}

TEST(MaxMin, ExpandRejectsReleasedVariable) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(10.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.release_variable(v);
  EXPECT_THROW(sys.expand(c, v), sg::xbt::InvalidArgument);
  // The slot stays usable once legitimately recycled.
  auto v2 = sys.new_variable(1.0);
  EXPECT_NO_THROW(sys.expand(c, v2));
}

TEST(MaxMin, CapacityUpdateChangesSolution) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 100.0, 1e-9);
  sys.set_capacity(c, 25.0);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 25.0, 1e-9);
}

// -- property-based sweep -------------------------------------------------------
//
// On random systems, the solution must be (a) feasible: no shared constraint
// over capacity, no fatpipe element over capacity, no variable over bound;
// (b) max-min optimal: every active variable is blocked by *something* — a
// saturated shared constraint it crosses, a fatpipe cap, or its own bound.

// gtest names each case after the raw bytes of its parameter, so the
// struct spells out what would be padding (zeroed by the `{}` below), and
// the case names are the same in every build.
struct RandomSystemParams {
  std::uint64_t seed;
  int n_vars;
  int n_cnsts;
  bool with_bounds;
  bool with_fatpipes;
  bool with_weights;
  unsigned char name_bytes[5];
};
static_assert(sizeof(RandomSystemParams) == 24, "RandomSystemParams must have no padding");

class MaxMinProperty : public ::testing::TestWithParam<RandomSystemParams> {};

TEST_P(MaxMinProperty, FeasibleAndMaxMinOptimal) {
  const auto p = GetParam();
  sg::xbt::Rng rng(p.seed);
  MaxMinSystem sys;

  std::vector<MaxMinSystem::CnstId> cnsts;
  std::vector<bool> shared;
  std::vector<double> caps;
  for (int c = 0; c < p.n_cnsts; ++c) {
    const bool sh = !p.with_fatpipes || rng.uniform01() < 0.7;
    const double cap = rng.uniform(10.0, 1000.0);
    cnsts.push_back(sys.new_constraint(cap, sh));
    shared.push_back(sh);
    caps.push_back(cap);
  }

  struct VarInfo {
    MaxMinSystem::VarId id;
    double weight;
    double bound;
    std::vector<int> used;  // constraint indices
    std::vector<double> coeffs;
  };
  std::vector<VarInfo> vars;
  for (int i = 0; i < p.n_vars; ++i) {
    VarInfo info;
    info.weight = p.with_weights ? rng.uniform(0.5, 4.0) : 1.0;
    info.bound = (p.with_bounds && rng.uniform01() < 0.4) ? rng.uniform(5.0, 200.0) : -1.0;
    info.id = sys.new_variable(info.weight, info.bound);
    const int uses = static_cast<int>(rng.uniform_int(1, std::min(3, p.n_cnsts)));
    for (int u = 0; u < uses; ++u) {
      const int c = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(p.n_cnsts - 1)));
      const double coeff = rng.uniform(0.5, 2.0);
      sys.expand(cnsts[static_cast<size_t>(c)], info.id, coeff);
      info.used.push_back(c);
      info.coeffs.push_back(coeff);
    }
    vars.push_back(info);
  }

  sys.solve();

  const double tol = 1e-6;
  // (a) feasibility
  std::vector<double> usage_sum(static_cast<size_t>(p.n_cnsts), 0.0);
  std::vector<double> usage_max(static_cast<size_t>(p.n_cnsts), 0.0);
  for (const auto& v : vars) {
    const double val = sys.value(v.id);
    EXPECT_GE(val, 0.0);
    if (v.bound >= 0) {
      EXPECT_LE(val, v.bound * (1 + tol));
    }
    for (size_t k = 0; k < v.used.size(); ++k) {
      usage_sum[static_cast<size_t>(v.used[k])] += v.coeffs[k] * val;
      usage_max[static_cast<size_t>(v.used[k])] =
          std::max(usage_max[static_cast<size_t>(v.used[k])], v.coeffs[k] * val);
    }
  }
  for (int c = 0; c < p.n_cnsts; ++c) {
    if (shared[static_cast<size_t>(c)])
      EXPECT_LE(usage_sum[static_cast<size_t>(c)], caps[static_cast<size_t>(c)] * (1 + tol))
          << "shared constraint " << c << " over capacity";
    else
      EXPECT_LE(usage_max[static_cast<size_t>(c)], caps[static_cast<size_t>(c)] * (1 + tol))
          << "fatpipe constraint " << c << " over capacity";
  }

  // (b) optimality: every variable is blocked by something.
  for (const auto& v : vars) {
    const double val = sys.value(v.id);
    bool blocked = false;
    if (v.bound >= 0 && val >= v.bound * (1 - tol))
      blocked = true;
    for (size_t k = 0; k < v.used.size() && !blocked; ++k) {
      const int c = v.used[k];
      if (shared[static_cast<size_t>(c)]) {
        if (usage_sum[static_cast<size_t>(c)] >= caps[static_cast<size_t>(c)] * (1 - tol))
          blocked = true;
      } else {
        if (v.coeffs[k] * val >= caps[static_cast<size_t>(c)] * (1 - tol))
          blocked = true;
      }
    }
    EXPECT_TRUE(blocked) << "variable with value " << val << " is not blocked by anything";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSystems, MaxMinProperty,
    ::testing::Values(RandomSystemParams{1, 5, 3, false, false, false, {}},
                      RandomSystemParams{2, 10, 4, true, false, false, {}},
                      RandomSystemParams{3, 10, 4, false, true, false, {}},
                      RandomSystemParams{4, 20, 6, true, true, false, {}},
                      RandomSystemParams{5, 20, 6, true, true, true, {}},
                      RandomSystemParams{6, 50, 10, true, true, true, {}},
                      RandomSystemParams{7, 100, 15, true, true, true, {}},
                      RandomSystemParams{8, 200, 20, true, true, true, {}},
                      RandomSystemParams{9, 40, 2, false, false, true, {}},
                      RandomSystemParams{10, 8, 8, true, false, true, {}}));

// -- incremental solving --------------------------------------------------------

TEST(MaxMinIncremental, UntouchedComponentStaysFrozen) {
  MaxMinSystem sys;
  auto c1 = sys.new_constraint(100.0);
  auto c2 = sys.new_constraint(60.0);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c1, v1);
  sys.expand(c2, v2);
  sys.solve();  // first solve is full
  EXPECT_NEAR(sys.value(v1), 100.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 60.0, 1e-9);

  const auto solves_before = sys.solve_stats().solves;
  const auto visited_before = sys.solve_stats().vars_visited;
  sys.set_capacity(c2, 30.0);
  sys.solve();
  // Only v2's component was re-solved.
  EXPECT_EQ(sys.solve_stats().solves, solves_before + 1);
  EXPECT_EQ(sys.solve_stats().vars_visited, visited_before + 1);
  EXPECT_NEAR(sys.value(v1), 100.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 30.0, 1e-9);
  ASSERT_EQ(sys.changed_variables().size(), 1u);
  EXPECT_EQ(sys.changed_variables()[0], v2);
}

TEST(MaxMinIncremental, SolveIsNoOpWhenClean) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(10.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.solve();
  EXPECT_FALSE(sys.needs_solve());
  const auto solves_before = sys.solve_stats().solves;
  sys.solve();
  EXPECT_EQ(sys.solve_stats().solves, solves_before);
  EXPECT_TRUE(sys.changed_variables().empty());
  // A no-op mutation does not dirty anything either.
  sys.set_capacity(c, 10.0);
  sys.set_weight(v, 1.0);
  EXPECT_FALSE(sys.needs_solve());
}

TEST(MaxMinIncremental, NewFlowOnSharedConstraintResharesPeers) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v1 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 100.0, 1e-9);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 50.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 50.0, 1e-9);
  sys.release_variable(v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 100.0, 1e-9);
}

TEST(MaxMinIncremental, FatpipeBackboneDoesNotMergeComponents) {
  // The cluster shape: every flow crosses its private link plus one shared
  // backbone fatpipe. Churning one flow must not pull the other flows'
  // components into the re-solve (a fatpipe caps users independently), but a
  // backbone capacity change must reach all of them.
  MaxMinSystem sys;
  auto backbone = sys.new_constraint(1000.0, /*shared=*/false);
  std::vector<MaxMinSystem::CnstId> links;
  std::vector<MaxMinSystem::VarId> flows;
  for (int i = 0; i < 8; ++i) {
    links.push_back(sys.new_constraint(100.0 + i));
    auto v = sys.new_variable(1.0);
    sys.expand(links.back(), v);
    sys.expand(backbone, v);
    flows.push_back(v);
  }
  sys.solve();

  const auto full_before = sys.solve_stats().full_solves;
  const auto visited_before = sys.solve_stats().vars_visited;
  sys.release_variable(flows[0]);
  flows[0] = sys.new_variable(1.0);
  sys.expand(links[0], flows[0]);
  sys.expand(backbone, flows[0]);
  sys.solve();
  EXPECT_EQ(sys.solve_stats().full_solves, full_before) << "churn fell back to a full solve";
  EXPECT_EQ(sys.solve_stats().vars_visited, visited_before + 1)
      << "churning one flow re-solved other fatpipe users";
  EXPECT_NEAR(sys.value(flows[0]), 100.0, 1e-9);
  EXPECT_NEAR(sys.value(flows[3]), 103.0, 1e-9);

  // Capacity change on the fatpipe affects every user's cap.
  sys.set_capacity(backbone, 50.0);
  sys.solve();
  for (auto v : flows)
    EXPECT_NEAR(sys.value(v), 50.0, 1e-9);

  // The work of a churn solve must not grow with the backbone's degree: the
  // fatpipe caps are read from the affected flows, not from the fatpipe's
  // user list. Churn one flow on a backbone shared by N users and count the
  // incidence-list entries the solve reads.
  auto churn_incidences = [](int n_users) {
    MaxMinSystem wide;
    const auto bb = wide.new_constraint(1e6, /*shared=*/false);
    std::vector<MaxMinSystem::CnstId> own;
    std::vector<MaxMinSystem::VarId> vs;
    for (int i = 0; i < n_users; ++i) {
      own.push_back(wide.new_constraint(100.0 + i % 7));
      vs.push_back(wide.new_variable(1.0));
      wide.expand(own.back(), vs.back());
      wide.expand(bb, vs.back());
    }
    wide.solve();
    const auto before = wide.solve_stats();
    wide.release_variable(vs[0]);
    vs[0] = wide.new_variable(1.0);
    wide.expand(own[0], vs[0]);
    wide.expand(bb, vs[0]);
    wide.solve();
    EXPECT_EQ(wide.solve_stats().full_solves, before.full_solves);
    EXPECT_NEAR(wide.value(vs[0]), 100.0, 1e-9);
    return wide.solve_stats().incidences_visited - before.incidences_visited;
  };
  const auto narrow = churn_incidences(8);
  EXPECT_GT(narrow, 0u);
  EXPECT_EQ(churn_incidences(4096), narrow) << "a churn solve walked the backbone's users";
}

// The headline property: after an arbitrary mutation history, the incremental
// solve must produce exactly the allocation a from-scratch solve computes.
// 1000 mixed mutations; every 10 mutations the incremental result is compared
// to solve_full() on every live variable.
TEST(MaxMinIncremental, EquivalentToFullSolveUnderRandomMutations) {
  sg::xbt::Rng rng(20260730);
  MaxMinSystem sys;

  // Constraints come in small clusters and variables only expand within one
  // cluster — the shape of real platforms (mostly-independent flows), which
  // keeps connected components small so the incremental path is exercised
  // instead of always falling back to solve_full().
  constexpr int kClusters = 20;
  constexpr int kCnstsPerCluster = 3;
  std::vector<MaxMinSystem::CnstId> cnsts;
  for (int c = 0; c < kClusters * kCnstsPerCluster; ++c)
    cnsts.push_back(sys.new_constraint(rng.uniform(10.0, 1000.0), rng.uniform01() < 0.8));
  std::vector<MaxMinSystem::VarId> live;
  auto random_cnst = [&] { return cnsts[rng.uniform_int(0, cnsts.size() - 1)]; };
  auto add_var = [&] {
    const double bound = rng.uniform01() < 0.3 ? rng.uniform(5.0, 200.0) : MaxMinSystem::kNoBound;
    auto v = sys.new_variable(rng.uniform01() < 0.1 ? 0.0 : rng.uniform(0.5, 4.0), bound);
    const auto cluster = rng.uniform_int(0, kClusters - 1);
    const int uses = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int u = 0; u < uses; ++u) {
      const auto c = cluster * kCnstsPerCluster + rng.uniform_int(0, kCnstsPerCluster - 1);
      sys.expand(cnsts[static_cast<size_t>(c)], v, rng.uniform(0.5, 2.0));
    }
    live.push_back(v);
  };
  for (int i = 0; i < 60; ++i)
    add_var();
  sys.solve();

  for (int step = 1; step <= 1000; ++step) {
    const double kind = rng.uniform01();
    if (kind < 0.25 || live.empty()) {
      add_var();
    } else if (kind < 0.45) {
      const size_t k = rng.uniform_int(0, live.size() - 1);
      sys.release_variable(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (kind < 0.65) {
      sys.set_weight(live[rng.uniform_int(0, live.size() - 1)],
                     rng.uniform01() < 0.15 ? 0.0 : rng.uniform(0.5, 4.0));
    } else if (kind < 0.8) {
      sys.set_bound(live[rng.uniform_int(0, live.size() - 1)],
                    rng.uniform01() < 0.3 ? MaxMinSystem::kNoBound : rng.uniform(5.0, 200.0));
    } else {
      sys.set_capacity(random_cnst(), rng.uniform(10.0, 1000.0));
    }

    sys.solve();  // incremental

    if (step % 10 == 0) {
      std::vector<double> incremental(live.size());
      for (size_t k = 0; k < live.size(); ++k)
        incremental[k] = sys.value(live[k]);
      sys.solve_full();
      for (size_t k = 0; k < live.size(); ++k) {
        const double full = sys.value(live[k]);
        EXPECT_NEAR(incremental[k], full, 1e-9 * std::max(1.0, std::abs(full)))
            << "step " << step << ", variable " << live[k];
      }
    }
  }

  // The sweep must actually have exercised the incremental path.
  const auto& stats = sys.solve_stats();
  EXPECT_GT(stats.solves, stats.full_solves * 2)
      << "incremental path was not exercised (solves=" << stats.solves
      << ", full=" << stats.full_solves << ")";
}

// -- element arena ---------------------------------------------------------------
//
// The incidence lists live in a shared arena of 4-entry nodes with an
// index-linked free list. These tests pin the recycling invariants: churn
// must not grow the arena, degree growth past the small-buffer threshold
// must chain nodes correctly, and released ids (variables *and* constraints)
// must never revive stale elements.

TEST(MaxMinArena, ReleaseReuseCyclesKeepFootprintFlat) {
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> cnsts;
  for (int c = 0; c < 10; ++c)
    cnsts.push_back(sys.new_constraint(100.0 + c));

  auto build = [&] {
    std::vector<MaxMinSystem::VarId> vars;
    for (int i = 0; i < 100; ++i) {
      auto v = sys.new_variable(1.0);
      for (int u = 0; u < 3; ++u)
        sys.expand(cnsts[static_cast<size_t>((i + u) % 10)], v);
      vars.push_back(v);
    }
    return vars;
  };

  auto vars = build();
  sys.solve();
  const auto baseline = sys.memory_stats();
  EXPECT_GT(baseline.arena_nodes_in_use, 0u);

  for (int cycle = 0; cycle < 50; ++cycle) {
    for (auto v : vars)
      sys.release_variable(v);
    EXPECT_EQ(sys.variable_count(), 0u);
    vars = build();
    sys.solve();
  }

  const auto after = sys.memory_stats();
  // Same shape rebuilt 50 times: the free lists must hand back the same
  // nodes and ids, not grow the arena.
  EXPECT_EQ(after.arena_nodes_in_use, baseline.arena_nodes_in_use);
  EXPECT_EQ(after.arena_nodes_allocated, baseline.arena_nodes_allocated);
  EXPECT_EQ(after.arena_bytes, baseline.arena_bytes);
  EXPECT_EQ(after.live_variables, 100u);
}

TEST(MaxMinArena, DegreeGrowthPastSmallBufferThreshold) {
  // Degree <= 4 fits one node; 19 constraints forces a 5-node chain. The
  // allocation must still be limited by the tightest cap / coeff ratio.
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> cnsts;
  auto v = sys.new_variable(1.0);
  for (int c = 0; c < 19; ++c) {
    auto id = sys.new_constraint(100.0 + 10.0 * c);
    sys.expand(id, v, 1.0 + c);  // cap/coeff minimized at c=18: 280/19
    cnsts.push_back(id);
  }
  EXPECT_EQ(sys.variable_degree(v), 19u);
  for (auto c : cnsts)
    EXPECT_EQ(sys.constraint_degree(c), 1u);
  sys.solve();
  double tightest = 1e30;
  for (int c = 0; c < 19; ++c)
    tightest = std::min(tightest, (100.0 + 10.0 * c) / (1.0 + c));
  EXPECT_NEAR(sys.value(v), tightest, 1e-9 * tightest);

  const auto in_use = sys.memory_stats().arena_nodes_in_use;
  sys.release_variable(v);
  // The 5-node chain and the 19 single-entry constraint nodes all free.
  EXPECT_EQ(sys.memory_stats().arena_nodes_in_use, in_use - 5 - 19);
}

TEST(MaxMinArena, DuplicateExpandAddsConsumption) {
  // Expanding the same (cnst, var) twice keeps both elements: consumption is
  // additive, exactly like the old per-object vector layout.
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v, 1.0);
  sys.expand(c, v, 1.0);
  EXPECT_EQ(sys.constraint_degree(c), 2u);
  EXPECT_EQ(sys.variable_degree(v), 2u);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 50.0, 1e-9);
  EXPECT_NEAR(sys.usage(c), 100.0, 1e-9);
  sys.release_variable(v);
  EXPECT_EQ(sys.constraint_degree(c), 0u);
}

TEST(MaxMinArena, ConstraintReleaseFreesUsersAndRecyclesId) {
  MaxMinSystem sys;
  auto narrow = sys.new_constraint(10.0);
  auto wide = sys.new_constraint(100.0);
  auto v = sys.new_variable(1.0);
  sys.expand(narrow, v);
  sys.expand(wide, v);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 10.0, 1e-9);

  sys.release_constraint(narrow);
  EXPECT_EQ(sys.constraint_count(), 1u);
  EXPECT_EQ(sys.variable_degree(v), 1u);  // the narrow element is gone
  sys.solve();
  EXPECT_NEAR(sys.value(v), 100.0, 1e-9) << "releasing the bottleneck must free its users";

  // The id is recycled; stale elements must not re-attach to it.
  auto recycled = sys.new_constraint(7.0);
  EXPECT_EQ(recycled, narrow);
  EXPECT_EQ(sys.constraint_degree(recycled), 0u);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 100.0, 1e-9) << "recycled constraint revived a stale element";

  auto v2 = sys.new_variable(1.0);
  sys.expand(recycled, v2);
  sys.solve_full();
  EXPECT_NEAR(sys.value(v2), 7.0, 1e-9);
  EXPECT_NEAR(sys.value(v), 100.0, 1e-9);
}

TEST(MaxMinArena, ReleasedConstraintOperations) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(10.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.release_constraint(c);
  EXPECT_THROW(sys.expand(c, v), sg::xbt::InvalidArgument);
  EXPECT_NO_THROW(sys.release_constraint(c));  // idempotent
  EXPECT_THROW(sys.release_constraint(c + 1), sg::xbt::Exception);
  // A release while dirty must not confuse the next incremental solve.
  sys.solve();
  EXPECT_GE(sys.value(v), MaxMinSystem::kUnlimited);  // unconstrained now
}

TEST(MaxMinArena, ConstraintIdRecyclingStress) {
  // Random create/release cycles over both id spaces with full-solve
  // equivalence checks: recycling must be indistinguishable from fresh ids.
  sg::xbt::Rng rng(97);
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> cnsts;
  std::vector<std::pair<MaxMinSystem::VarId, std::vector<MaxMinSystem::CnstId>>> vars;

  for (int step = 0; step < 400; ++step) {
    const double op = rng.uniform01();
    if (op < 0.3 || cnsts.size() < 3) {
      cnsts.push_back(sys.new_constraint(rng.uniform(10.0, 500.0)));
    } else if (op < 0.45) {
      // Release a random constraint; forget it from every tracked variable.
      const size_t k = rng.uniform_int(0, cnsts.size() - 1);
      sys.release_constraint(cnsts[k]);
      for (auto& [v, used] : vars)
        std::erase(used, cnsts[k]);
      cnsts.erase(cnsts.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op < 0.75 || vars.empty()) {
      auto v = sys.new_variable(rng.uniform(0.5, 2.0));
      std::vector<MaxMinSystem::CnstId> used;
      const int uses = 1 + static_cast<int>(rng.uniform_int(0, 2));
      for (int u = 0; u < uses; ++u) {
        const auto c = cnsts[rng.uniform_int(0, cnsts.size() - 1)];
        sys.expand(c, v);
        used.push_back(c);
      }
      vars.push_back({v, std::move(used)});
    } else {
      const size_t k = rng.uniform_int(0, vars.size() - 1);
      sys.release_variable(vars[k].first);
      vars.erase(vars.begin() + static_cast<std::ptrdiff_t>(k));
    }

    sys.solve();
    if (step % 20 == 0) {
      std::vector<double> incremental;
      incremental.reserve(vars.size());
      for (const auto& [v, used] : vars)
        incremental.push_back(sys.value(v));
      sys.solve_full();
      for (size_t k = 0; k < vars.size(); ++k)
        EXPECT_NEAR(incremental[k], sys.value(vars[k].first),
                    1e-9 * std::max(1.0, sys.value(vars[k].first)))
            << "step " << step;
      // Degrees must agree with the tracked incidences.
      for (const auto& [v, used] : vars)
        EXPECT_EQ(sys.variable_degree(v), used.size());
    }
  }
  EXPECT_EQ(sys.constraint_count(), cnsts.size());
  EXPECT_EQ(sys.variable_count(), vars.size());
}

}  // namespace
