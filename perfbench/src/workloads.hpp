/// \file workloads.hpp
/// The benchmark's four seeded workloads. Each one generates its platform
/// and activity stream from the seed, then drives the library through its
/// public API for one *episode*: set up (platform build + seal, engine or
/// kernel construction, initial activities or spawns), run to the end of
/// the generated stream, and report the simulated outcome, the wall-clock
/// timings and the per-layer counters the modules expose.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "spans.hpp"

namespace perfbench {

enum class Size { kFull, kTiny };  ///< kTiny: the harness self-test's size

struct EpisodeConfig {
  int lanes = 1;        ///< engine/threads
  bool traced = false;  ///< spans recorded and engine/profile on
  Size size = Size::kFull;
};

/// Simulated result of one episode. Every field is a pure function of the
/// seed (the library is deterministic at any lane count), so two episodes
/// of one seed must agree exactly, the clock to 1e-9 relative.
struct Outcome {
  std::uint64_t tasks = 0;        ///< tasks dispatched
  std::uint64_t completions = 0;  ///< tasks that ended successfully
  std::uint64_t failures = 0;     ///< failed attempts (expected only in churn_faults)
  std::uint64_t events = 0;       ///< action completions + failures delivered by run_until()
  std::uint64_t wakeups = 0;      ///< actor wakeups (kernel workloads; 0 otherwise)
  std::uint64_t bad_ends = 0;     ///< tasks that ended zero times or more than once
  double clock = 0.0;             ///< final simulated time
};

struct Episode {
  Outcome out;
  std::uint64_t expected_tasks = 0;  ///< fixed by the workload's parameters
  bool failures_expected = false;
  double setup_s = 0.0;  ///< platform build .. initial activities, wall
  double run_s = 0.0;    ///< first run_until()/run() to the end, wall
  double events_per_s = 0.0;
  double wakeups_per_s = 0.0;
  /// Per-layer values read from the modules' public counters at the end of
  /// the episode (phase shares need engine/profile, i.e. a traced episode).
  std::map<std::string, double> layers;
};

struct Workload {
  const char* name;
  int lanes;          ///< engine/threads of the traced run's episodes (before the nproc clamp)
  bool kernel_api;    ///< primary rate is wakeups_per_s rather than events_per_s
  Episode (*run)(std::uint64_t seed, const EpisodeConfig& cfg, Recorder& rec);
};

/// nullptr when unknown.
const Workload* find_workload(const std::string& name);

/// Resident-set figures from /proc/self/status, in bytes.
std::uint64_t rss_bytes();
std::uint64_t peak_rss_bytes();

}  // namespace perfbench
