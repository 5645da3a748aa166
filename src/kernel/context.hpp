/// \file context.hpp
/// Cooperative execution contexts for simulated processes.
///
/// The paper's MSG model runs *all simulated application processes within a
/// single OS process*. How a simulated process is realized is a pluggable
/// backend behind the Context interface, selected with the
/// `contexts/backend` config key (or the SG_CONTEXTS environment variable):
///
///  * `fiber` (default) — pooled stackful fibers switched in user space.
///    Stacks are small (`contexts/stack-size`, default 128 KiB), carved out
///    of slab mmaps, committed lazily by the kernel page by page, and
///    recycled through a free list when an actor dies. A context costs a
///    few hundred bytes until it first runs; this is the backend that
///    scales to 1M+ simulated actors.
///  * `thread` — one OS thread per actor, strictly serialized against the
///    maestro through a pair of binary semaphores. Megabytes of stack and a
///    kernel schedule per actor, but every debugging / profiling tool
///    understands it natively. Kept for debugging and as the reference
///    implementation for the backend-equivalence test sweep.
///
/// ## Switch protocol invariants (all backends)
///
/// 1. **Per-lane serialization.** Each context is driven by at most one OS
///    thread at a time: resume_and_wait() transfers control resumer->actor
///    and returns only when the actor has yielded or terminated; yield()
///    transfers actor->resumer and returns only at the next resume. With
///    `engine/parallel-actors` off the resumer is always the maestro and the
///    whole simulation is strictly serialized; with it on, the kernel's
///    scheduling phase resumes disjoint shards' contexts on different worker
///    lanes concurrently — but any one context still sees a strictly serial
///    resume/yield history, and successive resumes of the same context (even
///    from different lanes) are ordered through the lane barrier. Both
///    backends support cross-thread resumes: the fiber backend saves the
///    resumer's stack per resume, the thread backend hands off through
///    semaphores.
/// 2. **Resumer-side calls vs actor-side calls.** resume_and_wait() and
///    request_kill() may only be called by the current resumer (maestro or
///    owning lane); yield() may only be called from inside the context's
///    body. Backends are free to assume this (the fiber backend keeps the
///    resumer's saved stack pointer in the context being resumed).
/// 3. **Kill protocol.** request_kill() arms the kill; the *next* wakeup of
///    the body (via resume_and_wait()) throws ForcedExit inside yield(), so
///    the body unwinds with normal C++ semantics (RAII runs). A context
///    whose body never started skips the body entirely. After ForcedExit —
///    or normal return, or an escaped exception — the context reports
///    finished() and must never be resumed again.
/// 4. **Termination switch.** The final switch back to the maestro happens
///    after the body has fully unwound; the backend may release the
///    execution resources (stack, thread) as soon as finished() is true.
///    Under ASan, the terminating switch passes a null fake-stack save slot
///    so the sanitizer retires the fiber's fake stack (see context.cpp).
/// 5. **Exception containment.** Anything escaping the body except
///    ForcedExit is captured into failure(); it never crosses onto the
///    maestro stack.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "xbt/settings.hpp"

namespace sg::kernel {

/// Thrown inside an actor context to unwind its stack when it gets killed.
/// User code must let it propagate (catching it cancels the kill... just as
/// in real SimGrid).
struct ForcedExit {};

/// Typed config keys owned by the context layer; declare_context_config()
/// registers them. contexts/backend is seeded by SG_CONTEXTS.
inline constexpr config::StringKey kCfgContextBackend{"contexts/backend"};
inline constexpr config::NumberKey kCfgContextStackSize{"contexts/stack-size"};
inline constexpr config::IntKey kCfgContextGuardPages{"contexts/guard-pages"};

/// Register the `contexts/*` config keys (idempotent).
void declare_context_config();

/// Worker-lane id of the calling OS thread, used to pick per-lane context
/// resources (the fiber backend's stack free lists). Thread-local; defaults
/// to 0 (the maestro). The kernel tags each worker lane before resuming
/// actors on it and resets the maestro to 0 for the serial phases.
void set_context_lane(int lane);
int context_lane();

/// Number of per-lane resource slots backends keep. engine/threads is capped
/// at 256, so lane ids are always < kMaxContextLanes.
inline constexpr int kMaxContextLanes = 256;

class Context {
public:
  virtual ~Context() = default;

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Maestro side: let the actor run until it yields or terminates.
  /// Returns true when the body has finished (normally or by exception).
  virtual bool resume_and_wait() = 0;

  /// Actor side: hand control back to the maestro. If a kill was requested
  /// while parked, throws ForcedExit upon wakeup.
  virtual void yield() = 0;

  /// Maestro side: request the actor to die at its next wakeup. Call
  /// resume_and_wait() afterwards to actually unwind it.
  void request_kill() { kill_requested_ = true; }
  bool kill_requested() const { return kill_requested_; }

  bool finished() const { return finished_; }

  /// The exception (if any) that escaped the body, for error reporting.
  std::exception_ptr failure() const { return failure_; }

protected:
  explicit Context(std::function<void()> body) : body_(std::move(body)) {}

  /// Shared trampoline guts: run the body under the kill/containment rules.
  void run_body() {
    if (!kill_requested_) {
      try {
        body_();
      } catch (const ForcedExit&) {
        // normal kill path
      } catch (...) {
        failure_ = std::current_exception();
      }
    }
    finished_ = true;
  }

  std::function<void()> body_;
  bool kill_requested_ = false;
  bool finished_ = false;
  std::exception_ptr failure_;
};

/// Creates contexts of one backend flavor and owns their shared resources
/// (the fiber backend's stack pool lives here, so stacks are recycled
/// across the whole kernel rather than per actor).
class ContextFactory {
public:
  virtual ~ContextFactory() = default;

  virtual std::unique_ptr<Context> create(std::function<void()> body) = 0;
  virtual const char* backend_name() const = 0;

  /// Stack-pool accounting (all zero for backends without pooled stacks).
  /// Totals are aggregated over the per-lane free lists; call from a serial
  /// section (no lane concurrently acquiring) for an exact snapshot.
  struct PoolStats {
    size_t stacks_allocated = 0;  ///< stacks carved out of slabs so far
    size_t stacks_free = 0;       ///< currently parked in the free list
    size_t slabs = 0;             ///< slab mmaps backing the stacks
    size_t stack_bytes = 0;       ///< usable bytes per stack
  };
  virtual PoolStats pool_stats() const { return {}; }

  /// Build the backend selected by the `contexts/backend` config key
  /// ("fiber" or "thread"; the SG_CONTEXTS environment variable seeds the
  /// default). Throws xbt::InvalidArgument on an unknown name.
  static std::unique_ptr<ContextFactory> from_config();
};

}  // namespace sg::kernel
