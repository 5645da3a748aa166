/// \file spans.hpp
/// In-memory span recorder for the traced benchmark run, plus the small
/// statistics helpers the harness reports with.
///
/// A span is one call from the benchmark into a library module (or a phase
/// of the benchmark itself): a name, wall start/end, the enclosing span and
/// the id of the simulated task it serves (-1 when it serves no single
/// task). Spans are appended to a vector and written out when the benchmark
/// ends; nothing is recorded while the recorder is off, so untraced
/// episodes pay one predictable branch per call site.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct Span {
  std::uint32_t name = 0;  ///< index into Recorder::names()
  std::int32_t parent = -1;
  std::int64_t task = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class Recorder {
public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Intern a span name once (call sites keep the id in a static).
  std::uint32_t intern(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name)
        return i;
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }
  const std::vector<std::string>& names() const { return names_; }

  /// Open a span under the innermost open one; returns its index (-1 when
  /// the recorder is off).
  std::int32_t begin(std::uint32_t name, std::int64_t task) {
    if (!on_)
      return -1;
    spans_.push_back(Span{name, open_, task, wall_ns(), 0});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }
  void end(std::int32_t idx) {
    if (idx < 0)
      return;
    Span& s = spans_[static_cast<size_t>(idx)];
    s.end_ns = wall_ns();
    open_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

private:
  bool on_ = false;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

/// RAII span; a no-op when the recorder is off.
class Scoped {
public:
  Scoped(Recorder& rec, std::uint32_t name, std::int64_t task = -1)
      : rec_(rec), idx_(rec.begin(name, task)) {}
  ~Scoped() { rec_.end(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

private:
  Recorder& rec_;
  std::int32_t idx_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may overlap each other or reach
/// outside the parent; only the union inside the parent counts).
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<size_t>(spans[i].parent)].push_back(static_cast<std::int32_t>(i));
  std::vector<std::uint64_t> out(spans.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    iv.clear();
    for (std::int32_t c : children[i]) {
      const std::uint64_t b = std::max(spans[static_cast<size_t>(c)].start_ns, p.start_ns);
      const std::uint64_t e = std::min(spans[static_cast<size_t>(c)].end_ns, p.end_ns);
      if (e > b)
        iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_b = 0, cur_e = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open)
        covered += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    }
    if (open)
      covered += cur_e - cur_b;
    out[i] = (p.end_ns - p.start_ns) - covered;
  }
  return out;
}

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; 0 when empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty())
    return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

inline double median(std::vector<double> v) {
  if (v.empty())
    return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
