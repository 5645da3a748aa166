#include "platform/platform.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "xbt/exception.hpp"
#include "xbt/str.hpp"

namespace sg::platform {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fibonacci-style mix: pair keys are (src << 32 | dst), so the raw value is
/// far too structured for the linear-probing table's power-of-2 mask.
inline size_t route_hash(std::uint64_t key) {
  return static_cast<size_t>((key ^ (key >> 29)) * 0x9E3779B97F4A7C15ull >> 16);
}

/// FNV-1a over a link sequence, for the segment dedup index.
inline std::uint64_t seg_content_hash(const LinkId* links, size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(links[i]));
    h *= 0x100000001B3ull;
  }
  return h;
}
}  // namespace

// ---------------------------------------------------------------------------
// Resolved-route index (open addressing, RouteRefs stored inline)
// ---------------------------------------------------------------------------

const RouteRef* Platform::route_find(std::uint64_t key) const {
  if (route_keys_.empty())
    return nullptr;
  const size_t mask = route_keys_.size() - 1;
  for (size_t i = route_hash(key) & mask;; i = (i + 1) & mask) {
    if (route_keys_[i] == key)
      return &route_refs_[i];
    if (route_keys_[i] == kEmptyKey)
      return nullptr;
  }
}

void Platform::route_index_grow() const {
  const size_t new_cap = route_keys_.empty() ? 64 : route_keys_.size() * 2;
  std::vector<std::uint64_t> old_keys = std::move(route_keys_);
  std::vector<RouteRef> old_refs = std::move(route_refs_);
  route_keys_.assign(new_cap, kEmptyKey);
  route_refs_.assign(new_cap, RouteRef{});
  const size_t mask = new_cap - 1;
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == kEmptyKey)
      continue;
    size_t j = route_hash(old_keys[i]) & mask;
    while (route_keys_[j] != kEmptyKey)
      j = (j + 1) & mask;
    route_keys_[j] = old_keys[i];
    route_refs_[j] = old_refs[i];
  }
}

RouteRef& Platform::route_slot(std::uint64_t key) const {
  // Grow at 70% load so probe runs stay short.
  if (route_keys_.empty() || route_count_ * 10 >= route_keys_.size() * 7)
    route_index_grow();
  const size_t mask = route_keys_.size() - 1;
  size_t i = route_hash(key) & mask;
  while (route_keys_[i] != kEmptyKey && route_keys_[i] != key)
    i = (i + 1) & mask;
  if (route_keys_[i] != key) {
    route_keys_[i] = key;
    ++route_count_;
  }
  return route_refs_[i];
}

// ---------------------------------------------------------------------------
// Interned segment arena
// ---------------------------------------------------------------------------

SegId Platform::append_segment(const LinkId* links, size_t n) const {
  SegRec rec;
  rec.off = static_cast<std::uint32_t>(seg_links_.size());
  rec.len = static_cast<std::uint32_t>(n);
  for (size_t i = 0; i < n; ++i) {
    seg_links_.push_back(links[i]);
    rec.latency += links_[static_cast<size_t>(links[i])].latency_s;
  }
  segs_.push_back(rec);
  return static_cast<SegId>(segs_.size() - 1);
}

SegId Platform::intern_segment(const LinkId* links, size_t n) const {
  const std::uint64_t h = seg_content_hash(links, n);
  auto& candidates = seg_dedup_[h];
  for (SegId s : candidates) {
    const SegRec& rec = segs_[static_cast<size_t>(s)];
    if (rec.len == n &&
        std::equal(links, links + n, seg_links_.begin() + rec.off))
      return s;
  }
  const SegId s = append_segment(links, n);
  candidates.push_back(s);
  return s;
}

RouteView Platform::make_view(const RouteRef& ref) const {
  RouteView v;
  v.latency_ = ref.latency;
  const SegId parts[3] = {ref.up, ref.mid, ref.down};
  for (int i = 0; i < 3; ++i) {
    if (parts[i] == kNoSeg)
      continue;
    const SegRec& rec = segs_[static_cast<size_t>(parts[i])];
    v.spans_[i].b = seg_links_.data() + rec.off;
    v.spans_[i].n = rec.len;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

void Platform::drain_node_index() const {
  if (node_index_synced_.v.load(std::memory_order_acquire) == node_names_.size())
    return;
  std::lock_guard<std::mutex> lock(index_mutex_.m);
  for (size_t i = node_index_synced_.v.load(std::memory_order_relaxed); i < node_names_.size(); ++i)
    node_index_.emplace(node_names_[i], static_cast<NodeId>(i));
  node_index_synced_.v.store(node_names_.size(), std::memory_order_release);
}

void Platform::drain_link_index() const {
  if (link_index_synced_.v.load(std::memory_order_acquire) == links_.size())
    return;
  std::lock_guard<std::mutex> lock(index_mutex_.m);
  for (size_t i = link_index_synced_.v.load(std::memory_order_relaxed); i < links_.size(); ++i)
    link_index_.emplace(links_[i].name, static_cast<LinkId>(i));
  link_index_synced_.v.store(links_.size(), std::memory_order_release);
}

NodeId Platform::host_node_internal(const HostSpec& spec, bool defer_index) {
  const NodeId id = static_cast<NodeId>(node_names_.size());
  if (!defer_index) {
    // Single-probe insert: the emplace result doubles as the duplicate check
    // (join_host churn makes this a hot path on large platforms).
    drain_node_index();
    if (!node_index_.emplace(spec.name, id).second)
      throw xbt::InvalidArgument("duplicate node name: " + spec.name);
  }
  node_names_.push_back(spec.name);
  if (!defer_index)
    node_index_synced_.v.store(node_names_.size(), std::memory_order_release);
  nodes_.push_back({true, static_cast<int>(hosts_.size())});
  hosts_.push_back(spec);
  host_nodes_.push_back(id);
  host_zone_.push_back(-1);
  host_present_.push_back(1);
  host_departed_at_.push_back(0.0);
  return id;
}

NodeId Platform::add_host(const HostSpec& spec) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  return host_node_internal(spec);
}

NodeId Platform::add_host(const std::string& name, double speed_flops) {
  HostSpec spec;
  spec.name = name;
  spec.speed_flops = speed_flops;
  return add_host(spec);
}

NodeId Platform::add_router(const std::string& name) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  const NodeId id = static_cast<NodeId>(node_names_.size());
  drain_node_index();
  if (!node_index_.emplace(name, id).second)
    throw xbt::InvalidArgument("duplicate node name: " + name);
  node_names_.push_back(name);
  node_index_synced_.v.store(node_names_.size(), std::memory_order_release);
  nodes_.push_back({false, -1});
  return id;
}

LinkId Platform::link_internal(const LinkSpec& spec, bool defer_index) {
  if (spec.bandwidth_Bps <= 0)
    throw xbt::InvalidArgument("link " + spec.name + ": bandwidth must be positive");
  if (spec.latency_s < 0)
    throw xbt::InvalidArgument("link " + spec.name + ": latency must be non-negative");
  const LinkId id = static_cast<LinkId>(links_.size());
  if (!defer_index) {
    drain_link_index();
    if (!link_index_.emplace(spec.name, id).second)
      throw xbt::InvalidArgument("duplicate link name: " + spec.name);
  }
  links_.push_back(spec);
  if (!defer_index)
    link_index_synced_.v.store(links_.size(), std::memory_order_release);
  return id;
}

LinkId Platform::add_link(const LinkSpec& spec) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  return link_internal(spec);
}

LinkId Platform::add_link(const std::string& name, double bandwidth_Bps, double latency_s, SharingPolicy policy) {
  LinkSpec spec;
  spec.name = name;
  spec.bandwidth_Bps = bandwidth_Bps;
  spec.latency_s = latency_s;
  spec.policy = policy;
  return add_link(spec);
}

void Platform::add_edge(NodeId a, NodeId b, LinkId link) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  if (a < 0 || b < 0 || static_cast<size_t>(a) >= nodes_.size() || static_cast<size_t>(b) >= nodes_.size())
    throw xbt::InvalidArgument("add_edge: bad node id");
  if (link < 0 || static_cast<size_t>(link) >= links_.size())
    throw xbt::InvalidArgument("add_edge: bad link id");
  // Cluster zones rely on the gateway being the zone's only connection to the
  // rest of the platform: O(1) composition assumes every path in/out crosses
  // it. Reject edges that would splice into a cluster's interior.
  for (NodeId n : {a, b}) {
    if (nodes_[static_cast<size_t>(n)].host) {
      const ZoneId z = host_zone_[static_cast<size_t>(nodes_[static_cast<size_t>(n)].host_index)];
      if (z >= 0 && zones_[static_cast<size_t>(z)].kind == ZoneKind::kCluster)
        throw xbt::InvalidArgument("add_edge: " + node_names_[static_cast<size_t>(n)] +
                                   " is a member of cluster zone " + zones_[static_cast<size_t>(z)].name +
                                   "; attach through the zone gateway instead");
    } else {
      // A hub that doubles as the gateway (no backbone) IS the attach point.
      for (const ZoneRec& z : zones_)
        if (z.hub == n && z.gateway != n)
          throw xbt::InvalidArgument("add_edge: " + node_names_[static_cast<size_t>(n)] +
                                     " is the hub of cluster zone " + z.name +
                                     "; attach through the zone gateway instead");
    }
  }
  edges_.push_back({a, b, link});
}

void Platform::add_route(NodeId src, NodeId dst, std::vector<LinkId> links, bool symmetric) {
  if (!is_host(src) || !is_host(dst))
    throw xbt::InvalidArgument("add_route: endpoints must be hosts");
  for (LinkId l : links)
    if (l < 0 || static_cast<size_t>(l) >= links_.size())
      throw xbt::InvalidArgument("add_route: bad link id");
  const int s = host_index(src);
  const int d = host_index(dst);
  const SegId seg = links.empty() ? kNoSeg : intern_segment(links.data(), links.size());
  const double lat = seg == kNoSeg ? 0.0 : segs_[static_cast<size_t>(seg)].latency;
  route_slot(pair_key(s, d)) = RouteRef{kNoSeg, seg, kNoSeg, lat};
  explicit_routes_.push_back({s, d, RouteRef{kNoSeg, seg, kNoSeg, lat}});
  if (symmetric) {
    std::vector<LinkId> rev(links.rbegin(), links.rend());
    const SegId rseg = rev.empty() ? kNoSeg : intern_segment(rev.data(), rev.size());
    route_slot(pair_key(d, s)) = RouteRef{kNoSeg, rseg, kNoSeg, lat};
    explicit_routes_.push_back({d, s, RouteRef{kNoSeg, rseg, kNoSeg, lat}});
  }
}

// ---------------------------------------------------------------------------
// Zones
// ---------------------------------------------------------------------------

ZoneId Platform::add_cluster_zone(const ClusterZoneSpec& spec) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  if (spec.count <= 0)
    throw xbt::InvalidArgument("cluster zone " + spec.name + ": count must be positive");
  for (const ZoneRec& z : zones_)
    if (z.name == spec.name)
      throw xbt::InvalidArgument("duplicate zone name: " + spec.name);

  ZoneRec zone;
  zone.name = spec.name;
  zone.kind = ZoneKind::kCluster;
  zone.spec = spec;
  zone.up_latency = spec.link_latency;
  const std::string& prefix = spec.host_prefix.empty() ? spec.name : spec.host_prefix;
  const ZoneId zid = static_cast<ZoneId>(zones_.size());

  const NodeId hub = add_router(spec.name + "-switch");
  zone.hub = hub;
  const bool has_backbone = spec.backbone_bandwidth > 0;
  if (has_backbone) {
    zone.gateway = add_router(spec.name + "-out");
    LinkSpec bb;
    bb.name = spec.name + "-backbone";
    bb.bandwidth_Bps = spec.backbone_bandwidth;
    bb.latency_s = spec.backbone_latency;
    bb.policy = spec.backbone_fatpipe ? SharingPolicy::kFatpipe : SharingPolicy::kShared;
    zone.backbone = add_link(bb);
    zone.backbone_latency = spec.backbone_latency;
    edges_.push_back({hub, zone.gateway, zone.backbone});
  } else {
    zone.gateway = hub;
  }

  zone.first_host = static_cast<int>(hosts_.size());
  zone.count = spec.count;
  // Hosts, private links, edges — names and declaration order match the
  // historical make_cluster() exactly, so flat-graph twins are comparable
  // link-id for link-id.
  for (int m = 0; m < spec.count; ++m) {
    const std::string name = xbt::format("%s%d", prefix.c_str(), m);
    const NodeId h = add_host(name, spec.host_speed);
    const LinkId l = add_link(name + "-link", spec.link_bandwidth, spec.link_latency);
    if (m == 0)
      zone.first_uplink = l;
    else if (l != zone.first_uplink + m)
      throw xbt::InvalidArgument("cluster zone " + spec.name + ": member links must be contiguous");
    edges_.push_back({h, hub, l});
    host_zone_[static_cast<size_t>(nodes_[static_cast<size_t>(h)].host_index)] = zid;
  }

  // Intern the per-member route pieces, contiguously: [up], [up, bb],
  // [bb, up]. Without a backbone the hub is the gateway and all three
  // pieces collapse to [up].
  zone.seg_intra0 = static_cast<SegId>(segs_.size());
  for (int m = 0; m < spec.count; ++m) {
    const LinkId up = zone.first_uplink + m;
    append_segment(&up, 1);
  }
  if (has_backbone) {
    zone.seg_out0 = static_cast<SegId>(segs_.size());
    for (int m = 0; m < spec.count; ++m) {
      const LinkId out[2] = {zone.first_uplink + m, zone.backbone};
      append_segment(out, 2);
    }
    zone.seg_in0 = static_cast<SegId>(segs_.size());
    for (int m = 0; m < spec.count; ++m) {
      const LinkId in[2] = {zone.backbone, zone.first_uplink + m};
      append_segment(in, 2);
    }
  } else {
    zone.seg_out0 = zone.seg_intra0;
    zone.seg_in0 = zone.seg_intra0;
  }

  zones_.push_back(std::move(zone));
  return zid;
}

ZoneId Platform::add_graph_zone(const std::string& name, NodeId gateway) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  if (gateway < 0 || static_cast<size_t>(gateway) >= nodes_.size())
    throw xbt::InvalidArgument("add_graph_zone: bad gateway node");
  for (const ZoneRec& z : zones_)
    if (z.name == name)
      throw xbt::InvalidArgument("duplicate zone name: " + name);
  ZoneRec zone;
  zone.name = name;
  zone.kind = ZoneKind::kDijkstra;
  zone.gateway = gateway;
  zones_.push_back(std::move(zone));
  return static_cast<ZoneId>(zones_.size() - 1);
}

void Platform::zone_add_host(ZoneId zone, int host_index) {
  if (zone < 0 || static_cast<size_t>(zone) >= zones_.size())
    throw xbt::InvalidArgument("zone_add_host: bad zone id");
  check_host_index(host_index, "zone_add_host");
  if (zones_[static_cast<size_t>(zone)].kind == ZoneKind::kCluster)
    throw xbt::InvalidArgument("zone_add_host: cluster zones own their members");
  if (host_zone_[static_cast<size_t>(host_index)] >= 0)
    throw xbt::InvalidArgument("zone_add_host: " + hosts_[static_cast<size_t>(host_index)].name +
                               " already belongs to a zone");
  host_zone_[static_cast<size_t>(host_index)] = zone;
  ++zones_[static_cast<size_t>(zone)].count;
}

std::optional<ZoneId> Platform::zone_by_name(const std::string& name) const {
  for (size_t z = 0; z < zones_.size(); ++z)
    if (zones_[z].name == name)
      return static_cast<ZoneId>(z);
  return std::nullopt;
}

const ClusterZoneSpec& Platform::cluster_zone_spec(ZoneId zone) const {
  const ZoneRec& z = zones_.at(static_cast<size_t>(zone));
  if (z.kind != ZoneKind::kCluster)
    throw xbt::InvalidArgument("zone " + z.name + " is not a cluster zone");
  return z.spec;
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

bool Platform::is_host(NodeId node) const {
  return node >= 0 && static_cast<size_t>(node) < nodes_.size() && nodes_[static_cast<size_t>(node)].host;
}

int Platform::host_index(NodeId node) const {
  if (!is_host(node))
    throw xbt::InvalidArgument("node is not a host: " + std::to_string(node));
  return nodes_[static_cast<size_t>(node)].host_index;
}

NodeId Platform::host_node(int host_index) const {
  return host_nodes_.at(static_cast<size_t>(host_index));
}

std::optional<NodeId> Platform::node_by_name(const std::string& name) const {
  drain_node_index();
  auto it = node_index_.find(name);
  if (it == node_index_.end())
    return std::nullopt;
  return it->second;
}

std::optional<int> Platform::host_by_name(const std::string& name) const {
  auto node = node_by_name(name);
  if (!node || !is_host(*node))
    return std::nullopt;
  return host_index(*node);
}

std::optional<LinkId> Platform::link_by_name(const std::string& name) const {
  drain_link_index();
  auto it = link_index_.find(name);
  if (it == link_index_.end())
    return std::nullopt;
  return it->second;
}

void declare_platform_config() {
  config::declare(kCfgSsspCache, 64, 1, 1 << 20,
                  "max memoized single-source shortest-path trees (LRU); "
                  "seal() raises it to hosts/16 when that is larger");
}

void Platform::seal() {
  if (sealed_)
    return;
  adj_.assign(nodes_.size(), {});
  link_degree_.assign(links_.size(), 0);
  for (const Edge& e : edges_) {
    adj_[static_cast<size_t>(e.a)].push_back({e.b, e.link});
    adj_[static_cast<size_t>(e.b)].push_back({e.a, e.link});
    ++link_degree_[static_cast<size_t>(e.link)];
  }
  // SSSP-tree LRU capacity: configured floor, raised adaptively with the
  // platform size so that > 64 concurrently active sources (each tree is
  // O(nodes)) do not evict each other in a thrash loop.
  declare_platform_config();
  const long configured = config::get(kCfgSsspCache);
  sssp_cache_cap_ = std::max(static_cast<size_t>(configured), hosts_.size() / 16);
  build_shard_map();
  sealed_ = true;
}

void Platform::build_shard_map() {
  ShardMap& map = shard_map_;
  map.shard_count = static_cast<int>(zones_.size()) + 1;
  map.zone_shard.resize(zones_.size());
  for (size_t z = 0; z < zones_.size(); ++z)
    map.zone_shard[z] = static_cast<std::int32_t>(z) + 1;
  map.host_shard.assign(hosts_.size(), 0);
  for (size_t h = 0; h < hosts_.size(); ++h)
    if (host_zone_[h] >= 0)
      map.host_shard[h] = map.zone_shard[static_cast<size_t>(host_zone_[h])];

  // Link placement. Cluster zones are structural: member up/down links are
  // interior by construction, the backbone link is the gateway crossing
  // (backbone shard). Graph-zone interiority is derived from the edges: a
  // link is interior to zone z iff every edge it serves joins two hosts of
  // z — any edge touching a router or another zone makes it backbone.
  constexpr std::int32_t kUnset = -2;
  constexpr std::int32_t kBackbone = -1;
  std::vector<std::int32_t> link_zone(links_.size(), kUnset);
  for (const ZoneRec& z : zones_) {
    if (z.kind != ZoneKind::kCluster)
      continue;
    const ZoneId zid = static_cast<ZoneId>(&z - zones_.data());
    for (int m = 0; m < z.count; ++m)
      link_zone[static_cast<size_t>(z.first_uplink + m)] = zid;
    if (z.backbone >= 0)
      link_zone[static_cast<size_t>(z.backbone)] = kBackbone;
  }
  auto node_zone = [&](NodeId nd) -> std::int32_t {
    const NodeRec& rec = nodes_[static_cast<size_t>(nd)];
    return rec.host ? host_zone_[static_cast<size_t>(rec.host_index)] : -1;
  };
  for (const Edge& e : edges_) {
    std::int32_t& lz = link_zone[static_cast<size_t>(e.link)];
    if (lz == kBackbone || (lz >= 0 && zones_[static_cast<size_t>(lz)].kind == ZoneKind::kCluster))
      continue;  // cluster placement is structural, not edge-derived
    const std::int32_t za = node_zone(e.a);
    const std::int32_t zb = node_zone(e.b);
    const std::int32_t ez = (za >= 0 && za == zb) ? za : kBackbone;
    if (lz == kUnset)
      lz = ez;
    else if (lz != ez)
      lz = kBackbone;
  }
  map.link_shard.assign(links_.size(), 0);
  for (size_t l = 0; l < links_.size(); ++l)
    if (link_zone[l] >= 0)
      map.link_shard[l] = map.zone_shard[static_cast<size_t>(link_zone[l])];

  // Gateway links: the backbone-shard links adjacent to a zone's gateway —
  // the coupling surface every cross-zone flow of that zone runs through.
  map.gateway_links.clear();
  std::vector<char> is_gateway(nodes_.size(), 0);
  for (const ZoneRec& z : zones_)
    if (z.gateway >= 0)
      is_gateway[static_cast<size_t>(z.gateway)] = 1;
  std::vector<char> seen(links_.size(), 0);
  for (const Edge& e : edges_) {
    if (!is_gateway[static_cast<size_t>(e.a)] && !is_gateway[static_cast<size_t>(e.b)])
      continue;
    if (map.link_shard[static_cast<size_t>(e.link)] == 0 && !seen[static_cast<size_t>(e.link)]) {
      seen[static_cast<size_t>(e.link)] = 1;
      map.gateway_links.push_back(e.link);
    }
  }
}

const ShardMap& Platform::shard_map() const {
  if (!sealed_)
    throw xbt::InvalidArgument("shard_map: platform must be sealed first");
  return shard_map_;
}

// ---------------------------------------------------------------------------
// Dynamic membership
// ---------------------------------------------------------------------------

int Platform::join_host(ZoneId zone, const std::string& name, double speed_flops) {
  if (!sealed_)
    throw xbt::InvalidArgument("join_host: platform must be sealed (use add_* before seal())");
  if (zone < 0 || static_cast<size_t>(zone) >= zones_.size())
    throw xbt::InvalidArgument("join_host: bad zone id " + std::to_string(zone));
  ZoneRec& z = zones_[static_cast<size_t>(zone)];
  if (z.kind != ZoneKind::kCluster)
    throw xbt::InvalidArgument("join_host: zone " + z.name +
                               " is not a cluster zone (graph hosts use the attach overload)");

  const std::string& prefix = z.spec.host_prefix.empty() ? z.spec.name : z.spec.host_prefix;
  // Number by members-ever-created: base members and earlier extras keep
  // their names forever (departure does not free a name), so this is unique
  // — which lets the generated-name path skip the name maps entirely (they
  // are drained lazily by the next by-name lookup, keeping a join
  // O(affected) rather than O(hash table)).
  const bool generated = name.empty();
  const std::string host_name =
      generated ? xbt::format("%s%d", prefix.c_str(), z.spec.count + static_cast<int>(z.extra.size()))
                : name;
  HostSpec hs;
  hs.name = host_name;
  hs.speed_flops = speed_flops > 0 ? speed_flops : z.spec.host_speed;
  const NodeId hnode = host_node_internal(hs, /*defer_index=*/generated);
  const int h = nodes_[static_cast<size_t>(hnode)].host_index;

  LinkSpec ls;
  ls.name = host_name + "-link";
  ls.bandwidth_Bps = z.spec.link_bandwidth;
  ls.latency_s = z.spec.link_latency;
  const LinkId l = link_internal(ls, /*defer_index=*/generated);

  // Splice into every seal-time structure in place — O(affected), no re-seal.
  edges_.push_back({hnode, z.hub, l});
  adj_.resize(nodes_.size());
  adj_[static_cast<size_t>(hnode)].push_back({z.hub, l});
  adj_[static_cast<size_t>(z.hub)].push_back({hnode, l});
  link_degree_.push_back(1);
  host_zone_[static_cast<size_t>(h)] = zone;
  ++z.count;

  ZoneRec::ExtraMember em;
  em.host = h;
  em.uplink = l;
  em.seg_intra = append_segment(&l, 1);
  if (z.backbone >= 0) {
    const LinkId out[2] = {l, z.backbone};
    em.seg_out = append_segment(out, 2);
    const LinkId in[2] = {z.backbone, l};
    em.seg_in = append_segment(in, 2);
  } else {
    em.seg_out = em.seg_intra;
    em.seg_in = em.seg_intra;
  }
  z.extra_index.emplace(h, z.extra.size());
  z.extra.push_back(em);

  shard_map_.host_shard.push_back(shard_map_.zone_shard[static_cast<size_t>(zone)]);
  shard_map_.link_shard.push_back(shard_map_.zone_shard[static_cast<size_t>(zone)]);
  extend_sssp_trees(z.hub, l);
  return h;
}

int Platform::join_host(const HostSpec& spec, NodeId attach, const LinkSpec& uplink) {
  if (!sealed_)
    throw xbt::InvalidArgument("join_host: platform must be sealed (use add_* before seal())");
  if (attach < 0 || static_cast<size_t>(attach) >= nodes_.size())
    throw xbt::InvalidArgument("join_host: bad attach node id");
  // Same invariant as add_edge: a cluster's interior is only reachable
  // through its gateway, so new hosts may not splice into it.
  if (nodes_[static_cast<size_t>(attach)].host) {
    const ZoneId az = host_zone_[static_cast<size_t>(nodes_[static_cast<size_t>(attach)].host_index)];
    if (az >= 0 && zones_[static_cast<size_t>(az)].kind == ZoneKind::kCluster)
      throw xbt::InvalidArgument("join_host: " + node_names_[static_cast<size_t>(attach)] +
                                 " is a member of cluster zone " + zones_[static_cast<size_t>(az)].name +
                                 "; attach through the zone gateway instead");
  } else {
    for (const ZoneRec& z : zones_)
      if (z.hub == attach && z.gateway != attach)
        throw xbt::InvalidArgument("join_host: " + node_names_[static_cast<size_t>(attach)] +
                                   " is the hub of cluster zone " + z.name +
                                   "; attach through the zone gateway instead");
  }

  const NodeId hnode = host_node_internal(spec);
  const int h = nodes_[static_cast<size_t>(hnode)].host_index;
  const LinkId l = link_internal(uplink);

  edges_.push_back({hnode, attach, l});
  adj_.resize(nodes_.size());
  adj_[static_cast<size_t>(hnode)].push_back({attach, l});
  adj_[static_cast<size_t>(attach)].push_back({hnode, l});
  link_degree_.push_back(1);

  // Unzoned hosts and their uplinks live on the backbone shard, exactly
  // where a fresh seal() would place them.
  shard_map_.host_shard.push_back(0);
  shard_map_.link_shard.push_back(0);
  extend_sssp_trees(attach, l);
  return h;
}

void Platform::leave_host(int host_index, double at) {
  check_host_index(host_index, "leave_host");
  if (!sealed_)
    throw xbt::InvalidArgument("leave_host: platform must be sealed");
  if (!host_present_[static_cast<size_t>(host_index)])
    throw xbt::InvalidArgument("leave_host: host " + hosts_[static_cast<size_t>(host_index)].name +
                               " already departed at t=" +
                               xbt::format("%g", host_departed_at_[static_cast<size_t>(host_index)]));
  const bool transit =
      adj_[static_cast<size_t>(host_nodes_[static_cast<size_t>(host_index)])].size() > 1;
  host_present_[static_cast<size_t>(host_index)] = 0;
  host_departed_at_[static_cast<size_t>(host_index)] = at;
  ++departed_count_;
  // Leaf hosts (cluster members, joined hosts) transit nothing: presence
  // gating alone keeps every cache truthful, so departure is O(1). Only a
  // transit-capable node invalidates paths that ran through it.
  if (transit)
    flush_transit_caches();
}

void Platform::rejoin_host(int host_index) {
  check_host_index(host_index, "rejoin_host");
  if (!sealed_)
    throw xbt::InvalidArgument("rejoin_host: platform must be sealed");
  if (host_present_[static_cast<size_t>(host_index)])
    throw xbt::InvalidArgument("rejoin_host: host " + hosts_[static_cast<size_t>(host_index)].name +
                               " is already present");
  host_present_[static_cast<size_t>(host_index)] = 1;
  --departed_count_;
  // A returning transit node may offer better paths than the detour the
  // caches learned while it was away; leaf returns change no path.
  if (adj_[static_cast<size_t>(host_nodes_[static_cast<size_t>(host_index)])].size() > 1)
    flush_transit_caches();
}

std::vector<LinkId> Platform::host_private_links(int host_index) const {
  check_host_index(host_index, "host_private_links");
  std::vector<LinkId> out;
  if (!sealed_)
    return out;
  for (auto [peer, l] : adj_[static_cast<size_t>(host_nodes_[static_cast<size_t>(host_index)])]) {
    (void)peer;
    if (link_degree_[static_cast<size_t>(l)] == 1)
      out.push_back(l);
  }
  return out;
}

void Platform::member_segs(const ZoneRec& zone, int host_index, SegId* intra, SegId* out,
                           SegId* in) const {
  const int m = host_index - zone.first_host;
  if (m >= 0 && m < zone.spec.count) {
    *intra = zone.seg_intra0 + m;
    *out = zone.seg_out0 + m;
    *in = zone.seg_in0 + m;
    return;
  }
  const ZoneRec::ExtraMember& em = zone.extra[zone.extra_index.at(host_index)];
  *intra = em.seg_intra;
  *out = em.seg_out;
  *in = em.seg_in;
}

void Platform::extend_sssp_trees(NodeId attach, LinkId uplink) const {
  // The joined host is a leaf: the only way in is through `attach`, so the
  // exact distance is dist(attach) + w — no re-run, O(cached trees) total.
  const double w = links_[static_cast<size_t>(uplink)].latency_s + 1e-9;
  for (auto& [src, tree] : sssp_cache_) {
    (void)src;
    const double da = tree.dist[static_cast<size_t>(attach)];
    const bool through = da != kInf && node_transitable(attach);
    tree.dist.push_back(through ? da + w : kInf);
    tree.prev_node.push_back(through ? attach : -1);
    tree.prev_link.push_back(through ? uplink : -1);
  }
}

void Platform::flush_transit_caches() const {
  sssp_cache_.clear();
  node_pair_segs_.clear();
  route_keys_.clear();
  route_refs_.clear();
  route_count_ = 0;
  for (const ExplicitRoute& r : explicit_routes_)
    route_slot(pair_key(r.src, r.dst)) = r.ref;
}

void Platform::check_host_index(int host_index, const char* what) const {
  if (host_index < 0 || static_cast<size_t>(host_index) >= hosts_.size())
    throw xbt::InvalidArgument(std::string(what) + ": host index " + std::to_string(host_index) +
                               " out of range (platform has " + std::to_string(hosts_.size()) + " hosts)");
}

void Platform::check_host_present(int host_index, const char* what) const {
  if (host_present_[static_cast<size_t>(host_index)])
    return;
  throw xbt::InvalidArgument(std::string(what) + ": host " +
                             hosts_[static_cast<size_t>(host_index)].name + " departed at t=" +
                             xbt::format("%g", host_departed_at_[static_cast<size_t>(host_index)]) +
                             " (rejoin_host() restores it)");
}

void Platform::throw_no_route(int src_host, int dst_host) const {
  throw xbt::InvalidArgument("no route between " + hosts_[static_cast<size_t>(src_host)].name + " and " +
                             hosts_[static_cast<size_t>(dst_host)].name +
                             ": hosts are in disconnected components");
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

const Platform::SsspTree& Platform::sssp_from(NodeId src) const {
  auto hit = sssp_cache_.find(src);
  if (hit != sssp_cache_.end()) {
    hit->second.last_used = ++sssp_tick_;  // O(1) LRU refresh
    return hit->second;
  }

  if (sssp_cache_.size() >= sssp_cache_cap_) {
    // Evict the least recently used tree. The O(cap) scan only runs on a
    // miss, where the Dijkstra below dominates it anyway.
    auto lru = sssp_cache_.begin();
    for (auto it = std::next(lru); it != sssp_cache_.end(); ++it)
      if (it->second.last_used < lru->second.last_used)
        lru = it;
    sssp_cache_.erase(lru);
  }

  const size_t n_nodes = nodes_.size();
  SsspTree tree;
  tree.dist.assign(n_nodes, kInf);
  tree.prev_node.assign(n_nodes, -1);
  tree.prev_link.assign(n_nodes, -1);
  using QE = std::pair<double, NodeId>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> queue;
  tree.dist[static_cast<size_t>(src)] = 0.0;
  queue.push({0.0, src});
  while (!queue.empty()) {
    auto [d, u] = queue.top();
    queue.pop();
    if (d > tree.dist[static_cast<size_t>(u)])
      continue;
    // Departed hosts can still be reached (as endpoints) but never relayed
    // through; the source itself is exempt so presence stays the caller's
    // check, not a routing property.
    if (u != src && !node_transitable(u))
      continue;
    for (auto [v, l] : adj_[static_cast<size_t>(u)]) {
      // Metric: latency, with a tiny per-hop epsilon so zero-latency LANs
      // still prefer fewer hops; ties implicitly favour first-declared edges.
      const double w = links_[static_cast<size_t>(l)].latency_s + 1e-9;
      if (tree.dist[static_cast<size_t>(u)] + w < tree.dist[static_cast<size_t>(v)]) {
        tree.dist[static_cast<size_t>(v)] = tree.dist[static_cast<size_t>(u)] + w;
        tree.prev_node[static_cast<size_t>(v)] = u;
        tree.prev_link[static_cast<size_t>(v)] = l;
        queue.push({tree.dist[static_cast<size_t>(v)], v});
      }
    }
  }

  tree.last_used = ++sssp_tick_;
  auto [ins, inserted] = sssp_cache_.emplace(src, std::move(tree));
  (void)inserted;
  return ins->second;
}

bool Platform::node_path_segment(NodeId from, NodeId to, SegId* seg) const {
  if (from == to) {
    *seg = kNoSeg;
    return true;
  }
  const std::uint64_t key = pair_key(from, to);
  auto hit = node_pair_segs_.find(key);
  if (hit != node_pair_segs_.end()) {
    *seg = hit->second;
    return true;
  }
  const SsspTree& tree = sssp_from(from);
  if (tree.dist[static_cast<size_t>(to)] == kInf)
    return false;
  std::vector<LinkId> path;
  for (NodeId v = to; v != from; v = tree.prev_node[static_cast<size_t>(v)])
    path.push_back(tree.prev_link[static_cast<size_t>(v)]);
  std::reverse(path.begin(), path.end());
  *seg = intern_segment(path.data(), path.size());
  node_pair_segs_.emplace(key, *seg);
  return true;
}

bool Platform::compose_zone_route(int src_host, int dst_host, RouteRef* out) const {
  const ZoneId zs = host_zone_[static_cast<size_t>(src_host)];
  const ZoneId zd = host_zone_[static_cast<size_t>(dst_host)];
  const ZoneRec* src_zone =
      zs >= 0 && zones_[static_cast<size_t>(zs)].kind == ZoneKind::kCluster ? &zones_[static_cast<size_t>(zs)] : nullptr;
  const ZoneRec* dst_zone =
      zd >= 0 && zones_[static_cast<size_t>(zd)].kind == ZoneKind::kCluster ? &zones_[static_cast<size_t>(zd)] : nullptr;
  if (src_zone == nullptr && dst_zone == nullptr)
    return false;  // no cluster rule applies: plain graph resolution

  if (src_zone != nullptr && src_zone == dst_zone) {
    // Intra-cluster: up(i) through the hub to up(j). O(1), no Dijkstra, no
    // per-pair state — this is the 99% path of a cluster workload.
    SegId i_intra, i_out, i_in, j_intra, j_out, j_in;
    member_segs(*src_zone, src_host, &i_intra, &i_out, &i_in);
    member_segs(*src_zone, dst_host, &j_intra, &j_out, &j_in);
    out->up = i_intra;
    out->mid = kNoSeg;
    out->down = j_intra;
    out->latency = 2 * src_zone->up_latency;
    return true;
  }

  // Leaving and/or entering a cluster: member -> gateway, gateway -> gateway
  // through the flat graph (memoized per endpoint node pair — all members
  // of a cluster share their gateway's entries, so this never scales with
  // member pairs), gateway -> member.
  RouteRef ref;
  NodeId mid_from;
  NodeId mid_to;
  if (src_zone != nullptr) {
    SegId s_intra, s_out, s_in;
    member_segs(*src_zone, src_host, &s_intra, &s_out, &s_in);
    ref.up = s_out;
    ref.latency += src_zone->up_latency + src_zone->backbone_latency;
    mid_from = src_zone->gateway;
  } else {
    mid_from = host_nodes_[static_cast<size_t>(src_host)];
  }
  if (dst_zone != nullptr) {
    SegId d_intra, d_out, d_in;
    member_segs(*dst_zone, dst_host, &d_intra, &d_out, &d_in);
    ref.down = d_in;
    ref.latency += dst_zone->up_latency + dst_zone->backbone_latency;
    mid_to = dst_zone->gateway;
  } else {
    mid_to = host_nodes_[static_cast<size_t>(dst_host)];
  }
  if (!node_path_segment(mid_from, mid_to, &ref.mid))
    throw_no_route(src_host, dst_host);
  if (ref.mid != kNoSeg)
    ref.latency += segs_[static_cast<size_t>(ref.mid)].latency;
  *out = ref;
  return true;
}

RouteView Platform::route(int src_host, int dst_host) const {
  check_host_index(src_host, "route");
  check_host_index(dst_host, "route");
  if (!sealed_)
    throw xbt::InvalidArgument("platform must be sealed before routing between " +
                               hosts_[static_cast<size_t>(src_host)].name + " and " +
                               hosts_[static_cast<size_t>(dst_host)].name + " (call Platform::seal())");
  check_host_present(src_host, "route");
  check_host_present(dst_host, "route");

  // Explicit routes (and memoized graph resolutions) win over everything.
  if (const RouteRef* cached = route_find(pair_key(src_host, dst_host)))
    return make_view(*cached);
  if (src_host == dst_host)
    return RouteView{};  // loopback, absent an explicit self-route

  RouteRef composed;
  if (compose_zone_route(src_host, dst_host, &composed))
    return make_view(composed);  // zone rule: O(1), never cached per pair

  const NodeId src = host_nodes_[static_cast<size_t>(src_host)];
  const NodeId dst = host_nodes_[static_cast<size_t>(dst_host)];
  const SsspTree& tree = sssp_from(src);
  if (tree.dist[static_cast<size_t>(dst)] == kInf)
    throw_no_route(src_host, dst_host);

  std::vector<LinkId> path;
  for (NodeId v = dst; v != src; v = tree.prev_node[static_cast<size_t>(v)])
    path.push_back(tree.prev_link[static_cast<size_t>(v)]);
  std::reverse(path.begin(), path.end());
  const SegId seg = intern_segment(path.data(), path.size());
  RouteRef& slot = route_slot(pair_key(src_host, dst_host));
  slot = RouteRef{kNoSeg, seg, kNoSeg, segs_[static_cast<size_t>(seg)].latency};
  return make_view(slot);
}

bool Platform::reachable(int src_host, int dst_host) const {
  check_host_index(src_host, "reachable");
  check_host_index(dst_host, "reachable");
  if (!sealed_)
    throw xbt::InvalidArgument("platform must be sealed before routing between " +
                               hosts_[static_cast<size_t>(src_host)].name + " and " +
                               hosts_[static_cast<size_t>(dst_host)].name + " (call Platform::seal())");
  if (!host_present_[static_cast<size_t>(src_host)] || !host_present_[static_cast<size_t>(dst_host)])
    return false;
  if (route_find(pair_key(src_host, dst_host)) != nullptr)
    return true;
  if (src_host == dst_host)
    return true;

  const ZoneId zs = host_zone_[static_cast<size_t>(src_host)];
  const ZoneId zd = host_zone_[static_cast<size_t>(dst_host)];
  const bool src_cluster = zs >= 0 && zones_[static_cast<size_t>(zs)].kind == ZoneKind::kCluster;
  const bool dst_cluster = zd >= 0 && zones_[static_cast<size_t>(zd)].kind == ZoneKind::kCluster;
  if (src_cluster && zs == zd)
    return true;
  const NodeId from = src_cluster ? zones_[static_cast<size_t>(zs)].gateway
                                  : host_nodes_[static_cast<size_t>(src_host)];
  const NodeId to = dst_cluster ? zones_[static_cast<size_t>(zd)].gateway
                                : host_nodes_[static_cast<size_t>(dst_host)];
  if (from == to)
    return true;
  const SsspTree& tree = sssp_from(from);
  return tree.dist[static_cast<size_t>(to)] != kInf;
}

RoutingMemoryStats Platform::routing_memory() const {
  RoutingMemoryStats s;
  s.segment_bytes = seg_links_.capacity() * sizeof(LinkId) + segs_.capacity() * sizeof(SegRec);
  // unordered_map footprint approximation: bucket pointers + one heap node
  // per entry (key + value + chain pointer).
  s.segment_bytes += seg_dedup_.bucket_count() * sizeof(void*);
  for (const auto& [h, v] : seg_dedup_) {
    (void)h;
    s.segment_bytes += sizeof(std::uint64_t) + sizeof(std::vector<SegId>) + sizeof(void*) * 2 +
                       v.capacity() * sizeof(SegId);
  }
  s.segment_bytes += node_pair_segs_.bucket_count() * sizeof(void*) +
                     node_pair_segs_.size() * (sizeof(std::uint64_t) + sizeof(SegId) + sizeof(void*) * 2);
  s.pair_cache_bytes =
      route_keys_.capacity() * sizeof(std::uint64_t) + route_refs_.capacity() * sizeof(RouteRef);
  for (const auto& [src, tree] : sssp_cache_) {
    (void)src;
    s.sssp_bytes += tree.dist.capacity() * sizeof(double) + tree.prev_node.capacity() * sizeof(NodeId) +
                    tree.prev_link.capacity() * sizeof(LinkId) + sizeof(SsspTree) + sizeof(void*) * 3;
  }
  s.zone_bytes = zones_.capacity() * sizeof(ZoneRec) + host_zone_.capacity() * sizeof(std::int32_t);
  return s;
}

}  // namespace sg::platform
