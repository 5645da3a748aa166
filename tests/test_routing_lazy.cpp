/// Property tests for lazy on-demand routing: lazily resolved routes must be
/// identical (same links, same latency) to the old eager all-pairs
/// computation, resolved route contents must stay stable while other pairs
/// resolve (segment interning), and the SSSP-tree LRU must never change
/// results.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "config_pin.hpp"
#include "platform/platform.hpp"
#include "topo/brite.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"

namespace {

using namespace sg::platform;

/// Reference implementation: the eager all-pairs computation the platform
/// used to run in seal() — one Dijkstra per source host over the edge list,
/// same metric (latency + 1e-9 per hop so zero-latency LANs prefer fewer
/// hops, ties favour first-declared edges).
struct EagerRoutes {
  struct FlatRoute {
    std::vector<LinkId> links;
    double latency = 0;
  };
  std::vector<std::optional<FlatRoute>> routes;  // src * n_hosts + dst
  size_t n_hosts;

  explicit EagerRoutes(const Platform& p) : n_hosts(p.host_count()) {
    const size_t n_nodes = p.node_count();
    std::vector<std::vector<std::pair<NodeId, LinkId>>> adj(n_nodes);
    for (const Platform::Edge& e : p.edges()) {
      adj[static_cast<size_t>(e.a)].push_back({e.b, e.link});
      adj[static_cast<size_t>(e.b)].push_back({e.a, e.link});
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    routes.resize(n_hosts * n_hosts);
    for (size_t s = 0; s < n_hosts; ++s) {
      const NodeId src = p.host_node(static_cast<int>(s));
      std::vector<double> dist(n_nodes, kInf);
      std::vector<NodeId> prev_node(n_nodes, -1);
      std::vector<LinkId> prev_link(n_nodes, -1);
      using QE = std::pair<double, NodeId>;
      std::priority_queue<QE, std::vector<QE>, std::greater<>> queue;
      dist[static_cast<size_t>(src)] = 0.0;
      queue.push({0.0, src});
      while (!queue.empty()) {
        auto [d, u] = queue.top();
        queue.pop();
        if (d > dist[static_cast<size_t>(u)])
          continue;
        for (auto [v, l] : adj[static_cast<size_t>(u)]) {
          const double w = p.link(l).latency_s + 1e-9;
          if (dist[static_cast<size_t>(u)] + w < dist[static_cast<size_t>(v)]) {
            dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + w;
            prev_node[static_cast<size_t>(v)] = u;
            prev_link[static_cast<size_t>(v)] = l;
            queue.push({dist[static_cast<size_t>(v)], v});
          }
        }
      }
      for (size_t d = 0; d < n_hosts; ++d) {
        if (d == s)
          continue;
        const NodeId dst = p.host_node(static_cast<int>(d));
        if (dist[static_cast<size_t>(dst)] == kInf)
          continue;
        std::vector<LinkId> path;
        double lat = 0;
        for (NodeId v = dst; v != src; v = prev_node[static_cast<size_t>(v)]) {
          path.push_back(prev_link[static_cast<size_t>(v)]);
          lat += p.link(prev_link[static_cast<size_t>(v)]).latency_s;
        }
        std::reverse(path.begin(), path.end());
        routes[s * n_hosts + d] = FlatRoute{std::move(path), lat};
      }
    }
  }
};

void expect_all_pairs_match(const Platform& p) {
  const EagerRoutes ref(p);
  const int n = static_cast<int>(p.host_count());
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d) {
      if (s == d)
        continue;
      const auto& expected = ref.routes[static_cast<size_t>(s) * p.host_count() + static_cast<size_t>(d)];
      ASSERT_EQ(p.reachable(s, d), expected.has_value()) << "pair " << s << " -> " << d;
      if (!expected)
        continue;
      const RouteView got = p.route(s, d);
      EXPECT_EQ(got.links(), expected->links) << "pair " << s << " -> " << d;
      EXPECT_DOUBLE_EQ(got.latency(), expected->latency) << "pair " << s << " -> " << d;
    }
}

TEST(LazyRouting, MatchesEagerOnBriteTopologies) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    sg::topo::WaxmanSpec spec;
    spec.n_nodes = 40;
    spec.m_edges_per_node = 2;
    spec.seed = seed;
    const auto topo = sg::topo::generate_waxman(spec);
    Platform p = sg::topo::to_platform(topo);
    expect_all_pairs_match(p);
  }
}

TEST(LazyRouting, MatchesEagerOnRandomBuilderGraphs) {
  for (std::uint64_t seed : {3u, 11u, 99u}) {
    sg::xbt::Rng rng(seed);
    Platform p;
    const int n_hosts = 25;
    const int n_routers = 8;
    std::vector<NodeId> nodes;
    for (int i = 0; i < n_hosts; ++i)
      nodes.push_back(p.add_host("h" + std::to_string(i), 1e9));
    for (int i = 0; i < n_routers; ++i)
      nodes.push_back(p.add_router("r" + std::to_string(i)));
    // Random sparse graph; zero-latency links included to exercise the
    // per-hop epsilon tie-break. Possibly disconnected — unreachable pairs
    // must match the reference too.
    const int n_edges = 50;
    for (int i = 0; i < n_edges; ++i) {
      const auto a = nodes[rng.uniform_int(0, nodes.size() - 1)];
      const auto b = nodes[rng.uniform_int(0, nodes.size() - 1)];
      if (a == b)
        continue;
      const double lat = rng.uniform01() < 0.3 ? 0.0 : rng.uniform(1e-5, 1e-2);
      const LinkId l = p.add_link("l" + std::to_string(i), rng.uniform(1e7, 1e9), lat);
      p.add_edge(a, b, l);
    }
    p.seal();
    expect_all_pairs_match(p);
  }
}

TEST(LazyRouting, ExplicitRoutesWinOverLazyResolution) {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto c = p.add_host("c", 1e9);
  auto fast = p.add_link("fast", 1e9, 1e-5);
  auto slow = p.add_link("slow", 1e8, 5e-2);
  p.add_edge(a, b, fast);
  p.add_edge(b, c, fast);
  p.add_route(a, c, {slow});
  p.seal();
  // Explicit (a, c) wins even though the graph offers a lower-latency path.
  EXPECT_EQ(p.route(0, 2).links(), std::vector<LinkId>{slow});
  // The graph still serves the other pairs.
  EXPECT_EQ(p.route(0, 1).links(), std::vector<LinkId>{fast});
}

TEST(LazyRouting, RouteContentsStayStableAsMorePairsResolve) {
  // A star big enough that resolving all pairs rehashes the route cache,
  // grows the segment arena many times over, and cycles the SSSP-tree LRU.
  // Routes materialized early must read back identical afterwards: segment
  // interning may move storage, never contents.
  Platform p;
  const int n = 80;  // > SSSP cache capacity
  const NodeId sw = p.add_router("sw");
  std::vector<NodeId> hosts;
  for (int i = 0; i < n; ++i) {
    hosts.push_back(p.add_host("h" + std::to_string(i), 1e9));
    const LinkId l = p.add_link("l" + std::to_string(i), 1e8, 1e-4);
    p.add_edge(hosts.back(), sw, l);
  }
  p.seal();

  const std::vector<LinkId> pinned_links = p.route(0, 1).links();
  const double pinned_latency = p.route(0, 1).latency();

  // Resolve well over 1000 further pairs.
  int resolved = 0;
  for (int s = 0; s < n && resolved < 1500; ++s)
    for (int d = 0; d < n && resolved < 1500; ++d)
      if (s != d) {
        (void)p.route(s, d);
        ++resolved;
      }
  ASSERT_GE(resolved, 1500);

  // Same contents on a fresh query: segment storage may move, contents may
  // not. (Graph paths here are distinct [up_s, up_d] sequences per pair, so
  // interning cannot merge them — deduplication across identical sequences
  // is pinned by SegmentInterningDeduplicatesIdenticalPaths below.)
  EXPECT_EQ(p.route(0, 1).links(), pinned_links);
  EXPECT_DOUBLE_EQ(p.route(0, 1).latency(), pinned_latency);
  EXPECT_GE(p.resolved_route_count(), 1500u);
}

TEST(LazyRouting, SegmentInterningDeduplicatesIdenticalPaths) {
  // Four explicit routes (two pairs, both directions) all traverse the same
  // single-link sequence: the arena must hold exactly one segment, shared by
  // all four cached RouteRefs.
  Platform p;
  const NodeId a = p.add_host("a", 1e9);
  const NodeId b = p.add_host("b", 1e9);
  const NodeId c = p.add_host("c", 1e9);
  const NodeId d = p.add_host("d", 1e9);
  const LinkId l = p.add_link("shared", 1e8, 1e-3);
  p.add_route(a, b, {l});
  p.add_route(c, d, {l});
  p.seal();
  EXPECT_EQ(p.resolved_route_count(), 4u);
  EXPECT_EQ(p.interned_segment_count(), 1u);
  EXPECT_EQ(p.route(0, 1).links(), p.route(3, 2).links());
}

TEST(LazyRouting, SsspCacheEvictionDoesNotChangeResults) {
  // Chain topology: route(i, j) has |i - j| links. Query from more sources
  // than the tree cache holds, then re-query the first ones (their trees were
  // evicted and must be recomputed identically).
  Platform p;
  const int n = 100;
  std::vector<NodeId> hosts;
  for (int i = 0; i < n; ++i)
    hosts.push_back(p.add_host("h" + std::to_string(i), 1e9));
  for (int i = 0; i + 1 < n; ++i) {
    const LinkId l = p.add_link("l" + std::to_string(i), 1e8, 1e-3);
    p.add_edge(hosts[static_cast<size_t>(i)], hosts[static_cast<size_t>(i + 1)], l);
  }
  p.seal();

  for (int s = 0; s + 1 < n; ++s)
    EXPECT_EQ(p.route(s, s + 1).size(), 1u);
  EXPECT_LE(p.cached_sssp_tree_count(), 64u);
  // First sources were evicted; fresh queries must agree with the chain.
  for (int s = 0; s < 10; ++s)
    EXPECT_EQ(p.route(s, n - 1).size(), static_cast<size_t>(n - 1 - s));
}

TEST(LazyRouting, UnsealedRouteNamesBothHosts) {
  Platform p;
  p.add_host("alpha", 1e9);
  p.add_host("beta", 1e9);
  try {
    (void)p.route(0, 1);
    FAIL() << "expected xbt::InvalidArgument";
  } catch (const sg::xbt::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sealed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("alpha"), std::string::npos) << msg;
    EXPECT_NE(msg.find("beta"), std::string::npos) << msg;
  }
}

TEST(LazyRouting, UnreachablePairNamesBothHosts) {
  Platform p;
  p.add_host("island-a", 1e9);
  p.add_host("island-b", 1e9);
  p.seal();
  try {
    (void)p.route(0, 1);
    FAIL() << "expected xbt::InvalidArgument";
  } catch (const sg::xbt::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("island-a"), std::string::npos) << msg;
    EXPECT_NE(msg.find("island-b"), std::string::npos) << msg;
  }
}

TEST(LazyRouting, OutOfRangeHostIndexIsDiagnosed) {
  Platform p;
  p.add_host("only", 1e9);
  p.seal();
  try {
    (void)p.route(0, 5);
    FAIL() << "expected xbt::InvalidArgument";
  } catch (const sg::xbt::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// SSSP-tree cache sizing: `routing/sssp-cache` config floor, raised to
// hosts/16 at seal time.
// ---------------------------------------------------------------------------

namespace {
Platform star_platform(int n_hosts) {
  Platform p;
  const NodeId sw = p.add_router("sw");
  for (int i = 0; i < n_hosts; ++i) {
    const NodeId h = p.add_host("h" + std::to_string(i), 1e9);
    const LinkId l = p.add_link("l" + std::to_string(i), 1e8, 1e-4);
    p.add_edge(h, sw, l);
  }
  return p;
}
}  // namespace

TEST(LazyRouting, SsspCacheCapacityIsConfigurable) {
  sg::platform::declare_platform_config();
  Platform p = star_platform(32);  // hosts/16 = 2 < configured 4
  {
    const sg::test::ConfigPin<sg::config::IntKey> cache(sg::platform::kCfgSsspCache, 4);
    p.seal();
  }
  EXPECT_EQ(p.sssp_cache_capacity(), 4u);
  for (int s = 0; s < 12; ++s)
    (void)p.route(s, (s + 1) % 32);
  EXPECT_LE(p.cached_sssp_tree_count(), 4u);
  // Results stay correct under the tiny cache.
  for (int s = 0; s < 12; ++s)
    EXPECT_EQ(p.route(s, (s + 1) % 32).size(), 2u);
}

TEST(LazyRouting, SsspCacheGrowsWithPlatformSize) {
  Platform p = star_platform(2048);  // hosts/16 = 128 > default 64
  p.seal();
  EXPECT_EQ(p.sssp_cache_capacity(), 128u);
  // 100 distinct sources now fit without thrashing (the old fixed 64 cap
  // would have evicted 36 of them).
  for (int s = 0; s < 100; ++s)
    (void)p.route(s, s + 1000);
  EXPECT_EQ(p.cached_sssp_tree_count(), 100u);
}

}  // namespace
