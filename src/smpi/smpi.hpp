/// \file smpi.hpp
/// SMPI — the paper's interface for studying "how an existing MPI
/// application reacts to platform heterogeneity". A subset of MPI large
/// enough for real applications (pt2pt with tag/source matching, persistent
/// unexpected-message queues, the classic collectives) executes on simulated
/// processes, one per rank; computation between MPI calls is captured with
/// the SMPI_BENCH_* macros and replayed on the simulated hosts.
///
/// Ranks run as kernel actors inside one OS process, so buffers are plain
/// pointers and messages are copied at send time (eager) or at rendezvous.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "xbt/settings.hpp"

namespace sg::smpi {

// -- minimal MPI vocabulary ---------------------------------------------------

struct Datatype {
  size_t size;
  const char* name;
};
extern const Datatype MPI_BYTE;
extern const Datatype MPI_CHAR;
extern const Datatype MPI_INT;
extern const Datatype MPI_LONG;
extern const Datatype MPI_FLOAT;
extern const Datatype MPI_DOUBLE;

enum class Op { kSum, kMax, kMin, kProd };
constexpr Op MPI_SUM = Op::kSum;
constexpr Op MPI_MAX = Op::kMax;
constexpr Op MPI_MIN = Op::kMin;
constexpr Op MPI_PROD = Op::kProd;

constexpr int MPI_ANY_SOURCE = -1;
constexpr int MPI_ANY_TAG = -1;

struct Status {
  int source = -1;
  int tag = -1;
  size_t bytes = 0;
};

struct RequestRec;
using Request = std::shared_ptr<RequestRec>;

// -- world --------------------------------------------------------------------

/// Messages up to this many bytes are sent eagerly; larger ones rendezvous.
inline constexpr config::NumberKey kCfgEagerThreshold{"smpi/eager-threshold"};

/// Register the `smpi/*` config keys (idempotent).
void declare_smpi_config();

/// Run an "MPI application": spawn `nranks` processes executing `rank_main`,
/// mapped round-robin onto the platform hosts (or onto `host_names` when
/// given), and simulate to completion. Returns the simulated makespan.
double smpi_run(platform::Platform platform, int nranks, std::function<void(int)> rank_main,
                const std::vector<std::string>& host_names = {});

// -- rank-side API (callable from within rank_main) ------------------------------

int MPI_Comm_rank();
int MPI_Comm_size();
double MPI_Wtime();

void MPI_Send(const void* buf, int count, const Datatype& type, int dest, int tag);
void MPI_Recv(void* buf, int count, const Datatype& type, int source, int tag,
              Status* status = nullptr);
Request MPI_Isend(const void* buf, int count, const Datatype& type, int dest, int tag);
Request MPI_Irecv(void* buf, int count, const Datatype& type, int source, int tag);
void MPI_Wait(Request& request, Status* status = nullptr);
void MPI_Waitall(std::vector<Request>& requests);
/// Non-blocking completion probe (progress is made inside Wait).
bool MPI_Test(Request& request, Status* status = nullptr);
void MPI_Sendrecv(const void* sendbuf, int sendcount, const Datatype& type, int dest, int sendtag,
                  void* recvbuf, int recvcount, int source, int recvtag, Status* status = nullptr);

void MPI_Barrier();
void MPI_Bcast(void* buf, int count, const Datatype& type, int root);
void MPI_Reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type, Op op, int root);
void MPI_Allreduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type, Op op);
void MPI_Gather(const void* sendbuf, int sendcount, const Datatype& type, void* recvbuf, int root);
void MPI_Scatter(const void* sendbuf, int sendcount, const Datatype& type, void* recvbuf, int root);
void MPI_Allgather(const void* sendbuf, int sendcount, const Datatype& type, void* recvbuf);
void MPI_Alltoall(const void* sendbuf, int sendcount, const Datatype& type, void* recvbuf);

/// Simulate raw local computation (used when flop counts are known instead
/// of measured).
void SMPI_Compute(double flops);

// -- automatic benchmarking ------------------------------------------------------

/// First pass per call site: run the block for real, measure it, convert to
/// flops at the measuring host's speed. Later passes: skip the block and
/// replay the recorded flops on the local (possibly slower) host — this is
/// what makes the heterogeneity study possible without touching app code.
bool bench_once_begin(const char* file, int line);
void bench_once_end();
/// Measure and inject every time.
void bench_always_begin();
void bench_always_end();

/// Drop all cached SMPI_BENCH_ONCE measurements (between experiments).
void bench_reset();

}  // namespace sg::smpi

#define SMPI_BENCH_ONCE_RUN_ONCE_BEGIN() \
  if (::sg::smpi::bench_once_begin(__FILE__, __LINE__)) {
#define SMPI_BENCH_ONCE_RUN_ONCE_END() \
  }                                    \
  ::sg::smpi::bench_once_end()
#define SMPI_BENCH_ALWAYS_BEGIN() ::sg::smpi::bench_always_begin()
#define SMPI_BENCH_ALWAYS_END() ::sg::smpi::bench_always_end()
