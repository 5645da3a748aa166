#include "kernel/context.hpp"

#include <array>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <semaphore>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "xbt/exception.hpp"
#include "xbt/log.hpp"

// AddressSanitizer must be told about every stack switch, or its fake-stack
// bookkeeping (and stack-use-after-return detection) corrupts the moment a
// fiber yields. The protocol: the departing context calls
// __sanitizer_start_switch_fiber(save_slot, dest_bottom, dest_size) — with a
// null save_slot when it is terminating, so ASan retires its fake stack —
// and the first thing code does on the destination stack is
// __sanitizer_finish_switch_fiber(own_saved_fake, &from_bottom, &from_size).
#if defined(__SANITIZE_ADDRESS__)
#define SG_ASAN_FIBER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SG_ASAN_FIBER 1
#endif
#endif

#ifdef SG_ASAN_FIBER
#include <sanitizer/common_interface_defs.h>
#endif

// The fiber backend switches stacks with ~20 instructions of hand-rolled
// assembly on x86-64 (ucontext's swapcontext issues a sigprocmask syscall on
// every switch, ~10x the cost). Other architectures fall back to ucontext.
#if defined(__x86_64__) && defined(__GNUC__)
#define SG_RAW_CONTEXT 1
#else
#include <ucontext.h>
#endif

SG_LOG_NEW_CATEGORY(context, "actor execution contexts");

namespace sg::kernel {

namespace {
thread_local int t_context_lane = 0;
}  // namespace

void set_context_lane(int lane) {
  t_context_lane = (lane < 0 || lane >= kMaxContextLanes) ? 0 : lane;
}
int context_lane() { return t_context_lane; }

void declare_context_config() {
  config::declare(kCfgContextBackend, "fiber",
                  "execution backend for simulated processes: 'fiber' (pooled user-space "
                  "stacks, scales to millions of actors) or 'thread' (one OS thread per "
                  "actor, debugger-friendly)",
                  "SG_CONTEXTS");
  config::declare(kCfgContextStackSize, 128.0 * 1024,
                  "usable stack bytes per fiber (rounded up to whole pages); pages are "
                  "committed lazily, so small per-actor footprints come from touching "
                  "few pages, not from tiny virtual sizes");
  config::declare(kCfgContextGuardPages, 1, 0, 64,
                  "inaccessible guard pages below each fiber stack; set 0 for 1M+ actor "
                  "runs — every guard splits a kernel VMA and vm.max_map_count caps those");
}

namespace {

inline void asan_start_switch(void** fake_stack_save, const void* dest_bottom, size_t dest_size) {
#ifdef SG_ASAN_FIBER
  __sanitizer_start_switch_fiber(fake_stack_save, dest_bottom, dest_size);
#else
  (void)fake_stack_save;
  (void)dest_bottom;
  (void)dest_size;
#endif
}

inline void asan_finish_switch(void* own_fake_stack, const void** from_bottom, size_t* from_size) {
#ifdef SG_ASAN_FIBER
  __sanitizer_finish_switch_fiber(own_fake_stack, from_bottom, from_size);
#else
  (void)own_fake_stack;
  (void)from_bottom;
  (void)from_size;
#endif
}

// ---------------------------------------------------------------------------
// Thread backend: one OS thread per actor, serialized by two semaphores.
// ---------------------------------------------------------------------------

class ThreadContext final : public Context {
public:
  explicit ThreadContext(std::function<void()> body) : Context(std::move(body)) {
    thread_ = std::thread([this] { trampoline(); });
  }

  ~ThreadContext() override {
    if (!finished_) {
      // The actor never ran to completion; unwind it so the thread can exit.
      kill_requested_ = true;
      go_.release();
      done_.acquire();
    }
    if (thread_.joinable())
      thread_.join();
  }

  bool resume_and_wait() override {
    go_.release();
    done_.acquire();
    return finished_;
  }

  void yield() override {
    done_.release();
    go_.acquire();
    if (kill_requested_)
      throw ForcedExit{};
  }

private:
  void trampoline() {
    go_.acquire();  // wait for the first resume
    run_body();
    done_.release();  // give control back to maestro, thread exits
  }

  std::thread thread_;
  std::binary_semaphore go_{0};    // maestro -> actor
  std::binary_semaphore done_{0};  // actor -> maestro
};

class ThreadContextFactory final : public ContextFactory {
public:
  std::unique_ptr<Context> create(std::function<void()> body) override {
    return std::make_unique<ThreadContext>(std::move(body));
  }
  const char* backend_name() const override { return "thread"; }
};

// ---------------------------------------------------------------------------
// Fiber backend: pooled stackful fibers switched in user space.
// ---------------------------------------------------------------------------

/// Slab-allocated stack pool. Stacks are carved out of large anonymous
/// mmaps (one VMA per ~256 stacks instead of one per stack — Linux caps a
/// process at vm.max_map_count VMAs, which per-stack mmaps would exhaust
/// around 65k actors), committed lazily by the kernel as pages are touched,
/// and recycled LIFO so a respawned actor reuses cache- and TLB-hot pages.
///
/// Lane safety: under engine/parallel-actors a stack is acquired on whatever
/// worker lane first resumes the actor and released on whatever lane unwinds
/// it. Recycling goes through small per-lane LIFO caches keyed off
/// context_lane() — the hot acquire/release path never takes a lock and
/// keeps its cache-warm stacks lane-local — while the cold paths (carving a
/// fresh stack out of a slab, mapping a new slab, and the shared overflow
/// list that rebalances stacks released on a different lane than they were
/// acquired on) serialize on one mutex.
class StackPool {
public:
  StackPool(size_t usable_bytes, size_t guard_bytes)
      : page_(static_cast<size_t>(sysconf(_SC_PAGESIZE))),
        usable_(round_up(usable_bytes, page_)),
        guard_(round_up(guard_bytes, page_)),
        stride_(usable_ + guard_) {}

  ~StackPool() {
    for (void* slab : slabs_)
      ::munmap(slab, slab_bytes());
  }

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  /// Returns the lowest usable address of a stack (just above its guard).
  void* acquire() {
    auto& free = lanes_[static_cast<size_t>(context_lane())].free;
    if (!free.empty()) {
      void* s = free.back();
      free.pop_back();
      return s;
    }
    std::lock_guard<std::mutex> lock(slab_mutex_);
    if (!overflow_.empty()) {
      void* s = overflow_.back();
      overflow_.pop_back();
      return s;
    }
    if (slabs_.empty() || cursor_ == kStacksPerSlab) {
      void* slab = ::mmap(nullptr, slab_bytes(), PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      if (slab == MAP_FAILED)
        throw xbt::InvalidArgument("fiber stack pool: mmap failed (out of memory or VMAs?)");
      slabs_.push_back(slab);
      cursor_ = 0;
    }
    char* base = static_cast<char*>(slabs_.back()) + cursor_ * stride_;
    ++cursor_;
    ++carved_;
    if (guard_ > 0 && ::mprotect(base, guard_, PROT_NONE) != 0)
      throw xbt::InvalidArgument("fiber stack pool: mprotect(guard) failed");
    return base + guard_;
  }

  void release(void* stack) {
    auto& free = lanes_[static_cast<size_t>(context_lane())].free;
    if (free.size() < kLaneCacheCap) {
      free.push_back(stack);
      return;
    }
    // Beyond the small lane-local cache, spill to the shared overflow list.
    // Stacks are acquired on whichever lane first resumes an actor but often
    // released on the maestro (kill unwinds, reaps); without the spill the
    // maestro's list would hoard every recycled stack while the other lanes
    // carve fresh ones forever.
    std::lock_guard<std::mutex> lock(slab_mutex_);
    overflow_.push_back(stack);
  }

  size_t usable_bytes() const { return usable_; }
  // Aggregated accounting; exact when called from a serial section (the
  // kernel only reads pool stats between scheduling phases).
  size_t carved() const {
    std::lock_guard<std::mutex> lock(slab_mutex_);
    return carved_;
  }
  size_t free_count() const {
    size_t n;
    {
      std::lock_guard<std::mutex> lock(slab_mutex_);
      n = overflow_.size();
    }
    for (const auto& lane : lanes_)
      n += lane.free.size();
    return n;
  }
  size_t slab_count() const {
    std::lock_guard<std::mutex> lock(slab_mutex_);
    return slabs_.size();
  }

private:
  static constexpr size_t kStacksPerSlab = 256;
  /// Stacks a lane keeps to itself before spilling to the shared overflow.
  static constexpr size_t kLaneCacheCap = 8;
  static size_t round_up(size_t v, size_t to) { return (v + to - 1) / to * to; }
  size_t slab_bytes() const { return stride_ * kStacksPerSlab; }

  /// Padded so two lanes' free-list hot fields never share a cache line.
  struct alignas(64) LaneFreeList {
    std::vector<void*> free;  ///< LIFO of usable-base pointers
  };

  size_t page_;
  size_t usable_;
  size_t guard_;
  size_t stride_;
  std::array<LaneFreeList, kMaxContextLanes> lanes_;
  mutable std::mutex slab_mutex_;   ///< guards the slab list, carve cursor, overflow
  std::vector<void*> overflow_;     ///< spill-over free stacks, any lane may take
  std::vector<void*> slabs_;
  size_t cursor_ = kStacksPerSlab;  ///< next uncarved stack in slabs_.back()
  size_t carved_ = 0;
};

class FiberContext;
extern "C" void sg_fiber_main(void* ctx);  // shared C entry, both switch flavors

#ifdef SG_RAW_CONTEXT

// sg_raw_swap(void** save_sp, void* restore_sp): push the callee-saved
// registers, publish the old stack pointer, adopt the new one, pop, return.
// The System V AMD64 callee-saved set is rbp/rbx/r12-r15; everything else is
// caller-saved and already spilled by the compiler around the call.
__asm__(
    ".text\n"
    ".globl sg_raw_swap\n"
    ".type sg_raw_swap,@function\n"
    "sg_raw_swap:\n"
    "    pushq %rbp\n"
    "    pushq %rbx\n"
    "    pushq %r12\n"
    "    pushq %r13\n"
    "    pushq %r14\n"
    "    pushq %r15\n"
    "    movq %rsp, (%rdi)\n"
    "    movq %rsi, %rsp\n"
    "    popq %r15\n"
    "    popq %r14\n"
    "    popq %r13\n"
    "    popq %r12\n"
    "    popq %rbx\n"
    "    popq %rbp\n"
    "    ret\n"
    ".size sg_raw_swap, .-sg_raw_swap\n"
    // First-entry stub: a fresh fiber's fake frame parks the entry function
    // in the r12 slot and its argument in the r13 slot; the ret in
    // sg_raw_swap lands here with the stack 16-byte aligned minus the usual
    // return-address slot (the push restores call-site alignment for the
    // callq). sg_fiber_main never returns.
    ".globl sg_fiber_boot\n"
    ".type sg_fiber_boot,@function\n"
    "sg_fiber_boot:\n"
    "    pushq %rbp\n"
    "    movq %r13, %rdi\n"
    "    callq *%r12\n"
    "    ud2\n"
    ".size sg_fiber_boot, .-sg_fiber_boot\n");

extern "C" {
void sg_raw_swap(void** save_sp, void* restore_sp);
void sg_fiber_boot();
}

#endif  // SG_RAW_CONTEXT

class FiberContext final : public Context {
public:
  FiberContext(std::function<void()> body, StackPool* pool)
      : Context(std::move(body)), pool_(pool) {}

  ~FiberContext() override {
    if (started_ && !finished_) {
      // Unwind the parked body (ForcedExit out of yield) so RAII runs.
      kill_requested_ = true;
      while (!finished_)
        resume_and_wait();
    }
    if (stack_ != nullptr)
      pool_->release(stack_);
  }

  bool resume_and_wait() override {
    if (finished_)
      return true;
    if (!started_)
      start();
    // The resumer's ASan fake stack parks in *this* context (not a global).
    // The kernel resumes quanta from the maestro or a lane only, but a
    // resume can still nest — a killed actor whose cleanup kills another
    // actor unwinds that one from inside its own unwind — and each nesting
    // level must keep its own slot.
    asan_start_switch(&resumer_fake_stack_, stack_, pool_->usable_bytes());
    swap_to_fiber();
    asan_finish_switch(resumer_fake_stack_, nullptr, nullptr);
    if (finished_ && stack_ != nullptr) {
      // The body has fully unwound: recycle the stack right away so a dead
      // actor costs no committed pages while its Actor record lingers.
      pool_->release(stack_);
      stack_ = nullptr;
    }
    return finished_;
  }

  void yield() override {
    asan_start_switch(&fiber_fake_stack_, resumer_bottom_, resumer_size_);
    swap_to_maestro();
    // Re-learn who resumed us: it may be the maestro or another fiber.
    asan_finish_switch(fiber_fake_stack_, &resumer_bottom_, &resumer_size_);
    if (kill_requested_)
      throw ForcedExit{};
  }

  /// Body trampoline, running on the fiber stack (called via sg_fiber_main).
  void fiber_entry() {
    // Complete the very first switch; learn the resumer's stack identity.
    asan_finish_switch(nullptr, &resumer_bottom_, &resumer_size_);
    run_body();
    // Terminating switch: null save slot tells ASan to retire this fiber's
    // fake stack; a finished context is never resumed again.
    asan_start_switch(nullptr, resumer_bottom_, resumer_size_);
    swap_to_maestro();
    __builtin_unreachable();
  }

private:
  void start();
  void swap_to_fiber();
  void swap_to_maestro();

  StackPool* pool_;
  void* stack_ = nullptr;  ///< lowest usable address; allocated on first resume
  bool started_ = false;
  void* fiber_fake_stack_ = nullptr;    ///< ASan fake-stack slot for this fiber
  void* resumer_fake_stack_ = nullptr;  ///< ASan fake-stack slot of whoever resumed us
  const void* resumer_bottom_ = nullptr;  ///< resumer's stack, target of our next yield
  size_t resumer_size_ = 0;

#ifdef SG_RAW_CONTEXT
  void* fiber_sp_ = nullptr;    ///< fiber's saved stack pointer while parked
  void* maestro_sp_ = nullptr;  ///< resumer's saved stack pointer while the fiber runs
#else
  ucontext_t fiber_uc_;
  ucontext_t maestro_uc_;
#endif
};

extern "C" void sg_fiber_main(void* ctx) { static_cast<FiberContext*>(ctx)->fiber_entry(); }

#ifdef SG_RAW_CONTEXT

void FiberContext::start() {
  stack_ = pool_->acquire();
  started_ = true;
  // Build the fake frame sg_raw_swap will pop on first entry (stack grows
  // down from the 16-byte-aligned top): a return-address slot pointing at
  // sg_fiber_boot, then the six callee-saved slots with the entry function
  // in r12 and its argument in r13.
  void** top = reinterpret_cast<void**>(
      reinterpret_cast<uintptr_t>(static_cast<char*>(stack_) + pool_->usable_bytes()) & ~uintptr_t{15});
  *--top = nullptr;                                     // padding: keeps boot entry misaligned-by-8
  *--top = reinterpret_cast<void*>(&sg_fiber_boot);     // popped by ret
  *--top = nullptr;                                     // rbp
  *--top = nullptr;                                     // rbx
  *--top = reinterpret_cast<void*>(&sg_fiber_main);     // r12: entry function
  *--top = this;                                        // r13: entry argument
  *--top = nullptr;                                     // r14
  *--top = nullptr;                                     // r15
  fiber_sp_ = top;
}

void FiberContext::swap_to_fiber() { sg_raw_swap(&maestro_sp_, fiber_sp_); }
void FiberContext::swap_to_maestro() { sg_raw_swap(&fiber_sp_, maestro_sp_); }

#else  // ucontext fallback

namespace {
void fiber_uc_entry(unsigned hi, unsigned lo) {
  sg_fiber_main(reinterpret_cast<void*>((static_cast<uintptr_t>(hi) << 32) |
                                        static_cast<uintptr_t>(lo)));
}
}  // namespace

void FiberContext::start() {
  stack_ = pool_->acquire();
  started_ = true;
  getcontext(&fiber_uc_);
  fiber_uc_.uc_stack.ss_sp = stack_;
  fiber_uc_.uc_stack.ss_size = pool_->usable_bytes();
  fiber_uc_.uc_link = nullptr;
  const auto addr = reinterpret_cast<uintptr_t>(this);
  makecontext(&fiber_uc_, reinterpret_cast<void (*)()>(&fiber_uc_entry), 2,
              static_cast<unsigned>(addr >> 32), static_cast<unsigned>(addr & 0xffffffffu));
}

void FiberContext::swap_to_fiber() { swapcontext(&maestro_uc_, &fiber_uc_); }
void FiberContext::swap_to_maestro() { swapcontext(&fiber_uc_, &maestro_uc_); }

#endif  // SG_RAW_CONTEXT

class FiberContextFactory final : public ContextFactory {
public:
  FiberContextFactory(size_t stack_bytes, size_t guard_bytes) : pool_(stack_bytes, guard_bytes) {}

  std::unique_ptr<Context> create(std::function<void()> body) override {
    return std::make_unique<FiberContext>(std::move(body), &pool_);
  }
  const char* backend_name() const override { return "fiber"; }

  PoolStats pool_stats() const override {
    return {pool_.carved(), pool_.free_count(), pool_.slab_count(), pool_.usable_bytes()};
  }

private:
  StackPool pool_;
};

}  // namespace

std::unique_ptr<ContextFactory> ContextFactory::from_config() {
  declare_context_config();
  const std::string backend = config::get(kCfgContextBackend);
  if (backend == "thread")
    return std::make_unique<ThreadContextFactory>();
  if (backend == "fiber") {
    const auto stack = static_cast<size_t>(config::get(kCfgContextStackSize));
    const auto guard_pages = static_cast<size_t>(config::get(kCfgContextGuardPages));
    const auto page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return std::make_unique<FiberContextFactory>(stack, guard_pages * page);
  }
  throw xbt::InvalidArgument("contexts/backend must be 'fiber' or 'thread', got '" + backend + "'");
}

}  // namespace sg::kernel
