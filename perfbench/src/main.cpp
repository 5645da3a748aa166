/// Benchmark harness: runs one workload for a fixed wall budget and prints
/// one JSON line with the run's checks and metrics.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--size full|tiny] [--trace-out FILE.csv]
///   perfbench --workload NAME --seed N --outcome-only   (reference recording)
///   perfbench --selftest                                 (span arithmetic)
///
/// Every run starts with a 1-lane *reference episode* (also the warm-up);
/// each measured episode must reproduce its simulated outcome exactly (the
/// clock to 1e-9 relative), which cross-checks the multi-lane engine
/// against the serial one on the same seed. With --trace 0 the end-to-end
/// metrics are reported as medians over 1-lane episodes; with --trace 1 the
/// run alternates untraced, traced and other-lane-count episodes at the
/// workload's own lane count and reports the per-layer metrics, the tracing
/// overhead and the lane speedup.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "kernel/context.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "xbt/settings.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string trace_out;
  bool outcome_only = false;
  bool selftest = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--size full|tiny] [--trace-out FILE] [--outcome-only] | --selftest\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--size") {
      const std::string v = value();
      if (v != "full" && v != "tiny")
        usage("--size must be full or tiny");
      a.size = v == "tiny" ? Size::kTiny : Size::kFull;
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else if (k == "--outcome-only") {
      a.outcome_only = true;
    } else if (k == "--selftest") {
      a.selftest = true;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!a.selftest && (a.workload.empty() || !have_seed))
    usage("--workload and --seed are required");
  if (!(a.seconds > 0))
    usage("--seconds must be positive");
  return a;
}

double primary_rate(const Workload& w, const Episode& e) {
  return w.kernel_api ? e.wakeups_per_s : e.events_per_s;
}

/// The output checks: analytic counts, exactly-once task ends, and agreement
/// with the reference episode of the same seed.
bool check(const Episode& e, const Outcome& ref) {
  const Outcome& o = e.out;
  const double rel = std::fabs(o.clock - ref.clock) / std::max(std::fabs(ref.clock), 1e-300);
  return o.tasks == e.expected_tasks && o.completions == e.expected_tasks && o.bad_ends == 0 &&
         (e.failures_expected || o.failures == 0) && o.failures == ref.failures &&
         o.events == ref.events && o.wakeups == ref.wakeups && o.clock > 0 && rel <= 1e-9;
}

void print_outcome(const Outcome& o) {
  std::printf("{\"tasks\": %llu, \"completions\": %llu, \"failures\": %llu, \"events\": %llu, "
              "\"wakeups\": %llu, \"bad_ends\": %llu, \"clock\": %.17g}",
              static_cast<unsigned long long>(o.tasks), static_cast<unsigned long long>(o.completions),
              static_cast<unsigned long long>(o.failures), static_cast<unsigned long long>(o.events),
              static_cast<unsigned long long>(o.wakeups), static_cast<unsigned long long>(o.bad_ends),
              o.clock);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, int attempted, int failed, const std::vector<Metric>& metrics,
                  const Outcome& ref) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  std::printf("}, \"outcome\": ");
  print_outcome(ref);
  std::printf("}\n");
}

/// Per-layer metrics and their units, in report order. Values a workload's
/// episodes do not produce (its path never enters that layer) read 0.
struct LayerDef {
  const char* name;
  const char* unit;
};
constexpr LayerDef kLayerMetrics[] = {
    {"platform.seal_ms", "ms"},
    {"platform.route_ns_p50", "ns"},
    {"platform.route_ns_p99", "ns"},
    {"platform.routing_kb", "KiB"},
    {"maxmin.solves", "count"},
    {"maxmin.full_solves", "count"},
    {"maxmin.vars_visited_per_event", "vars/event"},
    {"maxmin.group_solves_per_round", "groups/round"},
    {"maxmin.bytes_per_flow", "B"},
    {"engine.rounds", "count"},
    {"engine.events_per_round", "events/round"},
    {"engine.run_until_us_p50", "us"},
    {"engine.run_until_us_p99", "us"},
    {"engine.comm_start_ns_p50", "ns"},
    {"engine.exec_start_ns_p50", "ns"},
    {"engine.solve_share", "ratio"},
    {"engine.pick_share", "ratio"},
    {"engine.advance_share", "ratio"},
    {"engine.epilogue_share", "ratio"},
    {"engine.set_host_state_us_p50", "us"},
    {"engine.failures_delivered", "count"},
    {"workers.serial_fraction", "ratio"},
    {"workers.lane_imbalance", "ratio"},
    {"workers.barrier_idle_share", "ratio"},
    {"workers.lane_speedup", "ratio"},
    {"kernel.spawn_ns_p50", "ns"},
    {"kernel.ns_per_switch", "ns"},
    {"kernel.switches_per_wakeup", "ratio"},
    {"kernel.wakeups", "count"},
    {"kernel.context_switches", "count"},
    {"context.bytes_per_actor", "B"},
    {"context.slabs", "count"},
    {"membership.join_us_p50", "us"},
    {"membership.leave_us_p50", "us"},
    {"membership.rejoin_us_p50", "us"},
    {"trace.overhead", "ratio"},
    {"trace.harness_self_share", "ratio"},
    {"trace.spans", "count"},
};

/// Median of one per-layer value over a set of episodes (0 when absent).
double layer_median(const std::vector<Episode>& eps, const std::string& key) {
  std::vector<double> v;
  for (const Episode& e : eps)
    if (auto it = e.layers.find(key); it != e.layers.end())
      v.push_back(it->second);
  return median(v);
}

/// CSV of the first `count` spans, times relative to the first span's start.
void write_spans(const std::string& path, const Recorder& rec, size_t count,
                 const std::vector<std::uint64_t>& self) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "id,parent,task,name,start_ns,end_ns,self_ns\n");
  const std::uint64_t t0 = count > 0 ? rec.spans()[0].start_ns : 0;
  for (size_t i = 0; i < count; ++i) {
    const Span& s = rec.spans()[i];
    std::fprintf(f, "%zu,%d,%lld,%s,%llu,%llu,%llu\n", i, s.parent, static_cast<long long>(s.task),
                 rec.names()[s.name].c_str(), static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0),
                 static_cast<unsigned long long>(self[i]));
  }
  std::fclose(f);
}

int run(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr)
    usage(("unknown workload " + a.workload).c_str());
  sg::core::declare_engine_config();
  sg::kernel::declare_context_config();

  // The end-to-end episodes run on one lane. On a host whose cores are
  // shared, a multi-lane round waits on the wake-up of idle lanes, which
  // measures the host's scheduler more than the engine (4-lane
  // dc_master_worker rates moved 3x between runs of one seed). The traced
  // run keeps the workload's own lane count, so the lane metrics and the
  // lane speedup still cover the fan-out.
  const int cores = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int lanes = std::min(w->lanes, cores);
  const int other_lanes = lanes > 1 ? 1 : std::min(4, cores);
  Recorder rec;

  const Episode ref = w->run(a.seed, EpisodeConfig{1, false, a.size}, rec);
  if (a.outcome_only) {
    print_outcome(ref.out);
    std::printf("\n");
    return 0;
  }
  int attempted = 1;
  int failed = check(ref, ref.out) ? 0 : 1;
  auto run_checked = [&](const EpisodeConfig& cfg) {
    Episode e = w->run(a.seed, cfg, rec);
    ++attempted;
    if (!check(e, ref.out))
      ++failed;
    return e;
  };

  std::vector<Metric> metrics;
  const std::uint64_t t0 = wall_ns();
  auto elapsed = [t0] { return static_cast<double>(wall_ns() - t0) * 1e-9; };

  if (!a.trace) {
    std::vector<double> eps, wps, setup;
    while (elapsed() < a.seconds || setup.size() < 5) {
      const Episode e = run_checked(EpisodeConfig{1, false, a.size});
      eps.push_back(e.events_per_s);
      wps.push_back(e.wakeups_per_s);
      setup.push_back(e.setup_s);
    }
    metrics = {{"events_per_s", median(eps), "events/s"},
               {"wakeups_per_s", median(wps), "wakeups/s"},
               {"setup_s", median(setup), "s"},
               {"peak_rss_mb", static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0), "MiB"}};
    print_result(failed == 0, attempted, failed, metrics, ref.out);
    return 0;
  }

  // Traced run: cycles of (untraced, traced, other lane count) episodes.
  std::vector<Episode> untraced, traced, other;
  size_t first_span_end = 0;
  while (elapsed() < a.seconds || traced.empty()) {
    untraced.push_back(run_checked(EpisodeConfig{lanes, false, a.size}));
    rec.set_on(true);
    traced.push_back(run_checked(EpisodeConfig{lanes, true, a.size}));
    rec.set_on(false);
    if (first_span_end == 0)
      first_span_end = rec.spans().size();
    other.push_back(run_checked(EpisodeConfig{other_lanes, false, a.size}));
  }

  const std::vector<std::uint64_t> self = self_times(rec.spans());
  std::map<std::string, std::vector<double>> dur_ns;  // span name -> durations
  double measure_ns = 0, measure_self_ns = 0;
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    const std::string& name = rec.names()[s.name];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    dur_ns[name].push_back(d);
    if (name == "measure") {
      measure_ns += d;
      measure_self_ns += static_cast<double>(self[i]);
    }
  }
  auto span_pct = [&](const char* name, double q, double scale) {
    const auto it = dur_ns.find(name);
    if (it == dur_ns.end())
      return 0.0;
    return (q == 0.5 ? median(it->second) : percentile(it->second, q)) / scale;
  };
  auto rates = [&](const std::vector<Episode>& eps) {
    std::vector<double> v;
    for (const Episode& e : eps)
      v.push_back(primary_rate(*w, e));
    return median(v);
  };
  const double rate_main = rates(untraced), rate_other = rates(other);

  std::map<std::string, double> values;
  for (const LayerDef& d : kLayerMetrics)
    values[d.name] = layer_median(traced, d.name);
  values["platform.seal_ms"] = span_pct("platform.seal", 0.5, 1e6);
  values["platform.route_ns_p50"] = span_pct("platform.route", 0.5, 1.0);
  values["platform.route_ns_p99"] = span_pct("platform.route", 0.99, 1.0);
  values["engine.run_until_us_p50"] = span_pct("engine.run_until", 0.5, 1e3);
  values["engine.run_until_us_p99"] = span_pct("engine.run_until", 0.99, 1e3);
  values["engine.comm_start_ns_p50"] = span_pct("engine.comm_start", 0.5, 1.0);
  values["engine.exec_start_ns_p50"] = span_pct("engine.exec_start", 0.5, 1.0);
  values["engine.set_host_state_us_p50"] = span_pct("engine.set_host_state", 0.5, 1e3);
  values["kernel.spawn_ns_p50"] = span_pct("kernel.spawn", 0.5, 1.0);
  values["membership.join_us_p50"] = span_pct("membership.join", 0.5, 1e3);
  values["membership.leave_us_p50"] = span_pct("membership.leave", 0.5, 1e3);
  values["membership.rejoin_us_p50"] = span_pct("membership.rejoin", 0.5, 1e3);
  // Wall-per-count ratios are read from the untraced episodes (spans and the
  // profiler would inflate them), RSS growth from the reference episode: it
  // is the process's first, so the allocator has no freed memory to reuse
  // and every byte an actor costs shows.
  values["kernel.ns_per_switch"] = layer_median(untraced, "kernel.ns_per_switch");
  values["context.bytes_per_actor"] = layer_median({ref}, "context.bytes_per_actor");
  values["workers.lane_speedup"] = lanes > 1 ? rate_main / rate_other : rate_other / rate_main;
  values["trace.overhead"] = 1.0 - rates(traced) / rate_main;
  values["trace.harness_self_share"] = measure_ns > 0 ? measure_self_ns / measure_ns : 0.0;
  values["trace.spans"] = static_cast<double>(first_span_end);  // per traced episode

  for (const LayerDef& d : kLayerMetrics)
    metrics.push_back({d.name, values[d.name], d.unit});
  if (!a.trace_out.empty())
    write_spans(a.trace_out, rec, first_span_end, self);
  print_result(failed == 0, attempted, failed, metrics, ref.out);
  return 0;
}

/// Unit checks of the self-time arithmetic on hand-built span trees.
int selftest() {
  int bad = 0;
  auto expect = [&bad](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got != want) {
      std::fprintf(stderr, "selftest: %s: got %llu, want %llu\n", what,
                   static_cast<unsigned long long>(got), static_cast<unsigned long long>(want));
      ++bad;
    }
  };
  // root [0,100): children [10,30) and [20,50) overlap -> cover [10,50);
  // child [90,120) reaches past the root -> only [90,100) counts.
  // grandchild [12,18) under the first child.
  const std::vector<Span> tree = {
      {0, -1, -1, 0, 100}, {1, 0, 7, 10, 30}, {1, 0, 8, 20, 50}, {2, 0, -1, 90, 120}, {3, 1, 7, 12, 18},
  };
  const auto self = self_times(tree);
  expect("root self", self[0], 100 - 40 - 10);
  expect("child self", self[1], 20 - 6);
  expect("overlapping sibling self", self[2], 30);
  expect("overhanging child self", self[3], 30);
  expect("leaf self", self[4], 6);
  // A span with no children keeps its whole duration; nested chains subtract
  // only their direct children.
  const std::vector<Span> chain = {{0, -1, -1, 0, 50}, {1, 0, -1, 5, 45}, {2, 1, -1, 10, 40}};
  const auto cs = self_times(chain);
  expect("chain root", cs[0], 10);
  expect("chain mid", cs[1], 10);
  expect("chain leaf", cs[2], 30);
  expect("percentile p99 of 1..100", static_cast<std::uint64_t>(percentile([] {
           std::vector<double> v;
           for (int i = 1; i <= 100; ++i)
             v.push_back(i);
           return v;
         }(), 0.99)), 99);
  expect("median of 4", static_cast<std::uint64_t>(median({4, 1, 3, 2}) * 2), 5);
  // The recorder nests spans by open order and stays silent when off.
  Recorder rec;
  const auto outer = rec.intern("outer"), inner = rec.intern("inner");
  { Scoped off(rec, outer); }
  expect("recorder off records nothing", rec.spans().size(), 0);
  rec.set_on(true);
  {
    Scoped o(rec, outer, 3);
    Scoped i(rec, inner, 3);
  }
  expect("recorder span count", rec.spans().size(), 2);
  expect("recorder parent link", static_cast<std::uint64_t>(rec.spans()[1].parent), 0);
  std::printf(bad == 0 ? "selftest ok\n" : "selftest FAILED\n");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse(argc, argv);
  // Pin glibc's mmap threshold. Left adaptive, it rises after the first large
  // free, and whether a later large block lands in the heap or in a mapping of
  // its own then depends on allocation history: peak RSS moved by up to 10%
  // between seeds of one workload.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return a.selftest ? perfbench::selftest() : perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
