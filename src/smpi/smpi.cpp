#include "smpi/smpi.hpp"

#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <unordered_map>

#include "kernel/kernel.hpp"
#include "xbt/exception.hpp"
#include "xbt/log.hpp"

SG_LOG_NEW_CATEGORY(smpi, "SMPI interface");

namespace sg::smpi {

const Datatype MPI_BYTE{1, "MPI_BYTE"};
const Datatype MPI_CHAR{1, "MPI_CHAR"};
const Datatype MPI_INT{4, "MPI_INT"};
const Datatype MPI_LONG{8, "MPI_LONG"};
const Datatype MPI_FLOAT{4, "MPI_FLOAT"};
const Datatype MPI_DOUBLE{8, "MPI_DOUBLE"};

namespace {

/// A message in flight (payload copied at send time).
struct Envelope {
  int src;
  int tag;
  std::vector<std::uint8_t> data;
};

struct RankState;

struct World {
  kernel::Kernel* kernel = nullptr;
  int size = 0;
  std::vector<RankState*> ranks;
  double eager_threshold = 65536;
};

struct RankState {
  World* world = nullptr;
  int rank = -1;
  kernel::MailboxId mbox = kernel::kNoMailbox;  ///< interned once at world setup
  std::deque<std::unique_ptr<Envelope>> unexpected;
};

// Rank state keyed by kernel actor id, not by thread: under the fiber
// context backend every rank shares the maestro's OS thread, so a
// thread_local cannot tell ranks apart. Access is serialized by the kernel.
std::unordered_map<long, RankState*>& actor_ranks() {
  static std::unordered_map<long, RankState*> map;
  return map;
}

/// RAII binding of a rank to its actor (unbinds on any exit, kills included).
struct RankScope {
  long actor_id;
  explicit RankScope(RankState* st) : actor_id(kernel::Kernel::self()->id()) {
    actor_ranks()[actor_id] = st;
  }
  ~RankScope() { actor_ranks().erase(actor_id); }
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;
};

RankState& self() {
  if (const kernel::Actor* a = kernel::Kernel::self()) {
    auto& map = actor_ranks();
    auto it = map.find(a->id());
    if (it != map.end())
      return *it->second;
  }
  throw xbt::InvalidArgument("MPI call outside of an SMPI rank");
}

bool matches(const Envelope& env, int source, int tag) {
  return (source == MPI_ANY_SOURCE || env.src == source) && (tag == MPI_ANY_TAG || env.tag == tag);
}

}  // namespace

struct RequestRec {
  enum class Kind { kSend, kRecv } kind;
  bool done = false;
  // send side
  kernel::CommPtr comm;       ///< only for rendezvous (large) sends
  Envelope* sent = nullptr;   ///< envelope handed to the kernel (owned by receiver on completion)
  // recv side
  void* buf = nullptr;
  size_t capacity = 0;
  int source = MPI_ANY_SOURCE;
  int tag = MPI_ANY_TAG;
  Status status;
};

namespace {

void deliver(RequestRec& req, std::unique_ptr<Envelope> env) {
  if (env->data.size() > req.capacity)
    throw xbt::InvalidArgument("MPI_Recv: message truncated (" + std::to_string(env->data.size()) +
                               " > " + std::to_string(req.capacity) + " bytes)");
  std::memcpy(req.buf, env->data.data(), env->data.size());
  req.status.source = env->src;
  req.status.tag = env->tag;
  req.status.bytes = env->data.size();
  req.done = true;
}

/// Blocking progress for a receive request: consume envelopes from the rank
/// mailbox until one matches, buffering the others (unexpected queue).
void progress_recv(RankState& st, RequestRec& req) {
  // 1. unexpected queue
  for (auto it = st.unexpected.begin(); it != st.unexpected.end(); ++it) {
    if (matches(**it, req.source, req.tag)) {
      auto env = std::move(*it);
      st.unexpected.erase(it);
      deliver(req, std::move(env));
      return;
    }
  }
  // 2. pull from the wire
  while (true) {
    void* raw = st.world->kernel->recv(st.mbox, -1.0);
    std::unique_ptr<Envelope> env(static_cast<Envelope*>(raw));
    if (matches(*env, req.source, req.tag)) {
      deliver(req, std::move(env));
      return;
    }
    st.unexpected.push_back(std::move(env));
  }
}

}  // namespace

// -- world --------------------------------------------------------------------

void declare_smpi_config() {
  config::declare(kCfgEagerThreshold, 65536.0,
                  "messages up to this size (bytes) are sent eagerly (buffered); larger ones "
                  "rendezvous");
}

double smpi_run(platform::Platform platform, int nranks, std::function<void(int)> rank_main,
                const std::vector<std::string>& host_names) {
  if (nranks <= 0)
    throw xbt::InvalidArgument("smpi_run: need at least one rank");
  declare_smpi_config();

  kernel::Kernel kernel(std::move(platform));
  World world;
  world.kernel = &kernel;
  world.size = nranks;
  world.ranks.resize(static_cast<size_t>(nranks));
  world.eager_threshold = config::get(kCfgEagerThreshold);

  const auto& p = kernel.engine().platform();
  std::vector<int> hosts;
  if (host_names.empty()) {
    for (int r = 0; r < nranks; ++r)
      hosts.push_back(r % static_cast<int>(p.host_count()));
  } else {
    for (const std::string& name : host_names) {
      auto idx = p.host_by_name(name);
      if (!idx)
        throw xbt::InvalidArgument("smpi_run: unknown host " + name);
      hosts.push_back(*idx);
    }
    if (static_cast<int>(hosts.size()) != nranks)
      throw xbt::InvalidArgument("smpi_run: host list size != nranks");
  }

  std::vector<std::unique_ptr<RankState>> states;
  for (int r = 0; r < nranks; ++r) {
    auto st = std::make_unique<RankState>();
    st->world = &world;
    st->rank = r;
    st->mbox = kernel.mailbox_by_name("smpi:" + std::to_string(r));
    world.ranks[static_cast<size_t>(r)] = st.get();
    states.push_back(std::move(st));
  }

  for (int r = 0; r < nranks; ++r) {
    RankState* st = states[static_cast<size_t>(r)].get();
    kernel.spawn("rank" + std::to_string(r), hosts[static_cast<size_t>(r)], [st, rank_main] {
      RankScope scope(st);
      rank_main(st->rank);
    });
  }
  return kernel.run();
}

// -- rank-side API ---------------------------------------------------------------

int MPI_Comm_rank() { return self().rank; }
int MPI_Comm_size() { return self().world->size; }
double MPI_Wtime() { return self().world->kernel->now(); }

namespace {

Request isend_impl(const void* buf, int count, const Datatype& type, int dest, int tag) {
  RankState& st = self();
  if (dest < 0 || dest >= st.world->size)
    throw xbt::InvalidArgument("MPI_Send: bad destination rank " + std::to_string(dest));
  auto req = std::make_shared<RequestRec>();
  req->kind = RequestRec::Kind::kSend;
  const size_t bytes = static_cast<size_t>(count) * type.size;
  auto* env = new Envelope();
  env->src = st.rank;
  env->tag = tag;
  env->data.resize(bytes);
  if (bytes > 0)
    std::memcpy(env->data.data(), buf, bytes);
  // On the wire both the payload and a small header travel.
  const double wire_bytes = static_cast<double>(bytes) + 32.0;
  if (static_cast<double>(bytes) <= st.world->eager_threshold) {
    // Eager: buffered send, sender is immediately free.
    st.world->kernel->send_detached(st.world->ranks[static_cast<size_t>(dest)]->mbox, env, wire_bytes);
    req->done = true;
  } else {
    // Rendezvous: completes when the receiver has it.
    req->comm = st.world->kernel->send_async(st.world->ranks[static_cast<size_t>(dest)]->mbox, env, wire_bytes);
    req->sent = env;
  }
  return req;
}

}  // namespace

void MPI_Send(const void* buf, int count, const Datatype& type, int dest, int tag) {
  Request req = isend_impl(buf, count, type, dest, tag);
  MPI_Wait(req);
}

Request MPI_Isend(const void* buf, int count, const Datatype& type, int dest, int tag) {
  return isend_impl(buf, count, type, dest, tag);
}

Request MPI_Irecv(void* buf, int count, const Datatype& type, int source, int tag) {
  auto req = std::make_shared<RequestRec>();
  req->kind = RequestRec::Kind::kRecv;
  req->buf = buf;
  req->capacity = static_cast<size_t>(count) * type.size;
  req->source = source;
  req->tag = tag;
  return req;
}

void MPI_Recv(void* buf, int count, const Datatype& type, int source, int tag, Status* status) {
  Request req = MPI_Irecv(buf, count, type, source, tag);
  MPI_Wait(req, status);
}

void MPI_Wait(Request& request, Status* status) {
  if (!request)
    throw xbt::InvalidArgument("MPI_Wait: null request");
  RankState& st = self();
  if (!request->done) {
    if (request->kind == RequestRec::Kind::kRecv) {
      progress_recv(st, *request);
    } else {
      st.world->kernel->comm_wait(request->comm);
      request->done = true;
    }
  }
  if (status != nullptr)
    *status = request->status;
}

void MPI_Waitall(std::vector<Request>& requests) {
  for (auto& r : requests)
    MPI_Wait(r);
}

bool MPI_Test(Request& request, Status* status) {
  if (!request)
    throw xbt::InvalidArgument("MPI_Test: null request");
  RankState& st = self();
  if (!request->done) {
    if (request->kind == RequestRec::Kind::kRecv) {
      for (auto it = st.unexpected.begin(); it != st.unexpected.end(); ++it) {
        if (matches(**it, request->source, request->tag)) {
          auto env = std::move(*it);
          st.unexpected.erase(it);
          deliver(*request, std::move(env));
          break;
        }
      }
    } else if (st.world->kernel->comm_test(request->comm)) {
      request->done = true;
    }
  }
  if (request->done && status != nullptr)
    *status = request->status;
  return request->done;
}

void MPI_Sendrecv(const void* sendbuf, int sendcount, const Datatype& type, int dest, int sendtag,
                  void* recvbuf, int recvcount, int source, int recvtag, Status* status) {
  Request send = MPI_Isend(sendbuf, sendcount, type, dest, sendtag);
  Request recv = MPI_Irecv(recvbuf, recvcount, type, source, recvtag);
  MPI_Wait(recv, status);
  MPI_Wait(send);
}

// -- collectives -------------------------------------------------------------------

namespace {
constexpr int kCollTagBase = 1 << 20;  // keep collective traffic away from user tags
}

void MPI_Barrier() {
  // Dissemination barrier: ceil(log2 P) rounds.
  const int size = MPI_Comm_size();
  const int rank = MPI_Comm_rank();
  char token = 0;
  for (int round = 0, dist = 1; dist < size; ++round, dist <<= 1) {
    const int to = (rank + dist) % size;
    const int from = (rank - dist % size + size) % size;
    MPI_Sendrecv(&token, 1, MPI_BYTE, to, kCollTagBase + round, &token, 1, from,
                 kCollTagBase + round);
  }
}

void MPI_Bcast(void* buf, int count, const Datatype& type, int root) {
  // Binomial tree rooted at `root`.
  const int size = MPI_Comm_size();
  const int rank = MPI_Comm_rank();
  const int rel = (rank - root + size) % size;
  int mask = 1;
  while (mask < size) {
    if (rel & mask) {
      const int src = (rel - mask + root) % size;
      MPI_Recv(buf, count, type, src, kCollTagBase + 100);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < size) {
      const int dst = (rel + mask + root) % size;
      MPI_Send(buf, count, type, dst, kCollTagBase + 100);
    }
    mask >>= 1;
  }
}

namespace {

void apply_op(Op op, const Datatype& type, const void* in, void* inout, int count) {
  auto combine = [op](auto a, auto b) {
    switch (op) {
      case Op::kSum: return a + b;
      case Op::kProd: return a * b;
      case Op::kMax: return a > b ? a : b;
      case Op::kMin: return a < b ? a : b;
    }
    return a;
  };
  if (type.size == MPI_INT.size && type.name == MPI_INT.name) {
    const int* a = static_cast<const int*>(in);
    int* b = static_cast<int*>(inout);
    for (int i = 0; i < count; ++i)
      b[i] = combine(a[i], b[i]);
  } else if (type.name == MPI_DOUBLE.name) {
    const double* a = static_cast<const double*>(in);
    double* b = static_cast<double*>(inout);
    for (int i = 0; i < count; ++i)
      b[i] = combine(a[i], b[i]);
  } else if (type.name == MPI_FLOAT.name) {
    const float* a = static_cast<const float*>(in);
    float* b = static_cast<float*>(inout);
    for (int i = 0; i < count; ++i)
      b[i] = combine(a[i], b[i]);
  } else if (type.name == MPI_LONG.name) {
    const long* a = static_cast<const long*>(in);
    long* b = static_cast<long*>(inout);
    for (int i = 0; i < count; ++i)
      b[i] = combine(a[i], b[i]);
  } else {
    throw xbt::InvalidArgument(std::string("MPI_Reduce: unsupported datatype ") + type.name);
  }
}

}  // namespace

void MPI_Reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type, Op op,
                int root) {
  // Binomial reduction tree (commutative ops).
  const int size = MPI_Comm_size();
  const int rank = MPI_Comm_rank();
  const int rel = (rank - root + size) % size;
  const size_t bytes = static_cast<size_t>(count) * type.size;

  std::vector<std::uint8_t> acc(bytes);
  std::memcpy(acc.data(), sendbuf, bytes);
  std::vector<std::uint8_t> incoming(bytes);

  int mask = 1;
  while (mask < size) {
    if (rel & mask) {
      const int dst = (rel - mask + root) % size;
      MPI_Send(acc.data(), count, type, dst, kCollTagBase + 200);
      break;
    }
    if (rel + mask < size) {
      const int src = (rel + mask + root) % size;
      MPI_Recv(incoming.data(), count, type, src, kCollTagBase + 200);
      apply_op(op, type, incoming.data(), acc.data(), count);
    }
    mask <<= 1;
  }
  if (rank == root)
    std::memcpy(recvbuf, acc.data(), bytes);
}

void MPI_Allreduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type, Op op) {
  MPI_Reduce(sendbuf, recvbuf, count, type, op, 0);
  MPI_Bcast(recvbuf, count, type, 0);
}

void MPI_Gather(const void* sendbuf, int sendcount, const Datatype& type, void* recvbuf, int root) {
  const int size = MPI_Comm_size();
  const int rank = MPI_Comm_rank();
  const size_t chunk = static_cast<size_t>(sendcount) * type.size;
  if (rank == root) {
    auto* out = static_cast<std::uint8_t*>(recvbuf);
    std::memcpy(out + static_cast<size_t>(rank) * chunk, sendbuf, chunk);
    for (int r = 0; r < size; ++r) {
      if (r == root)
        continue;
      MPI_Recv(out + static_cast<size_t>(r) * chunk, sendcount, type, r, kCollTagBase + 300);
    }
  } else {
    MPI_Send(sendbuf, sendcount, type, root, kCollTagBase + 300);
  }
}

void MPI_Scatter(const void* sendbuf, int sendcount, const Datatype& type, void* recvbuf, int root) {
  const int size = MPI_Comm_size();
  const int rank = MPI_Comm_rank();
  const size_t chunk = static_cast<size_t>(sendcount) * type.size;
  if (rank == root) {
    const auto* in = static_cast<const std::uint8_t*>(sendbuf);
    std::memcpy(recvbuf, in + static_cast<size_t>(rank) * chunk, chunk);
    for (int r = 0; r < size; ++r) {
      if (r == root)
        continue;
      MPI_Send(in + static_cast<size_t>(r) * chunk, sendcount, type, r, kCollTagBase + 400);
    }
  } else {
    MPI_Recv(recvbuf, sendcount, type, root, kCollTagBase + 400);
  }
}

void MPI_Allgather(const void* sendbuf, int sendcount, const Datatype& type, void* recvbuf) {
  // Ring allgather: P-1 steps, each forwarding the previously received block.
  const int size = MPI_Comm_size();
  const int rank = MPI_Comm_rank();
  const size_t chunk = static_cast<size_t>(sendcount) * type.size;
  auto* out = static_cast<std::uint8_t*>(recvbuf);
  std::memcpy(out + static_cast<size_t>(rank) * chunk, sendbuf, chunk);
  const int to = (rank + 1) % size;
  const int from = (rank - 1 + size) % size;
  for (int step = 0; step < size - 1; ++step) {
    // Standard ring schedule: at step s, forward block (rank - s) and
    // receive block (rank - s - 1), everything mod P.
    const int send_block = (rank - step + size * 8) % size;
    const int recv_block = (rank - step - 1 + size * 8) % size;
    MPI_Sendrecv(out + static_cast<size_t>(send_block) * chunk, sendcount, type, to,
                 kCollTagBase + 500 + step, out + static_cast<size_t>(recv_block) * chunk, sendcount,
                 from, kCollTagBase + 500 + step);
  }
}

void MPI_Alltoall(const void* sendbuf, int sendcount, const Datatype& type, void* recvbuf) {
  // Pairwise exchange.
  const int size = MPI_Comm_size();
  const int rank = MPI_Comm_rank();
  const size_t chunk = static_cast<size_t>(sendcount) * type.size;
  const auto* in = static_cast<const std::uint8_t*>(sendbuf);
  auto* out = static_cast<std::uint8_t*>(recvbuf);
  std::memcpy(out + static_cast<size_t>(rank) * chunk, in + static_cast<size_t>(rank) * chunk, chunk);
  for (int step = 1; step < size; ++step) {
    const int to = (rank + step) % size;
    const int from = (rank - step + size) % size;
    MPI_Sendrecv(in + static_cast<size_t>(to) * chunk, sendcount, type, to, kCollTagBase + 600 + step,
                 out + static_cast<size_t>(from) * chunk, sendcount, from, kCollTagBase + 600 + step);
  }
}

void SMPI_Compute(double flops) { self().world->kernel->execute(flops); }

// -- benchmarking ---------------------------------------------------------------------

namespace {

using BClock = std::chrono::steady_clock;

struct BenchTls {
  BClock::time_point start;
  bool running = false;
  bool measuring_once = false;
  std::string once_key;
};

BenchTls& bench_tls() {
  static thread_local BenchTls tls;
  return tls;
}

struct BenchCache {
  std::mutex mutex;
  std::map<std::string, double> flops;  ///< keyed by call site
};

BenchCache& bench_cache() {
  static BenchCache cache;
  return cache;
}

double local_speed() {
  RankState& st = self();
  kernel::Actor* a = kernel::Kernel::self();
  const double s = st.world->kernel->engine().host_speed(a->host());
  return s > 0 ? s : 1e9;
}

}  // namespace

bool bench_once_begin(const char* file, int line) {
  auto& tls = bench_tls();
  if (tls.running)
    throw xbt::InvalidArgument("SMPI bench: nested bench blocks are not supported");
  tls.once_key = std::string(file) + ":" + std::to_string(line);
  double cached = -1.0;
  {
    // Never hold the lock across a simcall: SMPI_Compute yields the actor,
    // and another rank contending on the mutex would deadlock the maestro.
    auto& cache = bench_cache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    auto it = cache.flops.find(tls.once_key);
    if (it != cache.flops.end())
      cached = it->second;
  }
  if (cached >= 0) {
    // Replay: simulate the recorded work on the local (maybe slower) host.
    SMPI_Compute(cached);
    tls.measuring_once = false;
    return false;
  }
  tls.running = true;
  tls.measuring_once = true;
  tls.start = BClock::now();
  return true;
}

void bench_once_end() {
  auto& tls = bench_tls();
  if (!tls.measuring_once)
    return;
  tls.running = false;
  tls.measuring_once = false;
  const double dt = std::chrono::duration<double>(BClock::now() - tls.start).count();
  const double flops = dt * local_speed();
  {
    auto& cache = bench_cache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.flops.emplace(tls.once_key, flops);
  }
  SMPI_Compute(flops);
}

void bench_always_begin() {
  auto& tls = bench_tls();
  if (tls.running)
    throw xbt::InvalidArgument("SMPI bench: nested bench blocks are not supported");
  tls.running = true;
  tls.start = BClock::now();
}

void bench_always_end() {
  auto& tls = bench_tls();
  if (!tls.running)
    throw xbt::InvalidArgument("SMPI_BENCH_ALWAYS_END without BEGIN");
  tls.running = false;
  const double dt = std::chrono::duration<double>(BClock::now() - tls.start).count();
  SMPI_Compute(dt * local_speed());
}

void bench_reset() {
  auto& cache = bench_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  cache.flops.clear();
}

}  // namespace sg::smpi
