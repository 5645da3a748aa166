/// The paper's SMPI example: 1-D parallel matrix multiplication. Matrices
/// are distributed in vertical strips; at every step the owner broadcasts
/// one column block, and every rank updates its strip of C with a local
/// dgemm wrapped in SMPI_BENCH_ONCE (measured once for real, replayed on
/// the simulated — possibly heterogeneous — hosts afterwards).
#include <cstdio>
#include <vector>

#include "platform/platform.hpp"
#include "smpi/smpi.hpp"
#include "xbt/settings.hpp"

using namespace sg::smpi;

namespace {

/// Row-major C += alpha * col (M x 1) * row (1 x NN): the rank-1 update at
/// the heart of the strip algorithm (stands in for the paper's cblas_dgemm).
void local_rank1_update(int M, int NN, double alpha, const double* col, const double* row,
                        double beta, double* C) {
  for (int i = 0; i < M; ++i) {
    const double a = alpha * col[i];
    double* c = C + static_cast<size_t>(i) * NN;
    for (int j = 0; j < NN; ++j)
      c[j] = a * row[j] + (beta != 1.0 ? beta * c[j] : c[j]);
  }
}

void parallel_mat_mult(int M, int N, int K, double alpha, const double* A, const double* B,
                       double beta, double* C) {
  const int num_proc = MPI_Comm_size();
  const int my_id = MPI_Comm_rank();
  const int KK = K / num_proc;
  const int NN = N / num_proc;
  std::vector<double> buf_col(static_cast<size_t>(M));

  for (int k = 0; k < K; ++k) {
    if (k / KK == my_id)
      for (int i = 0; i < M; ++i)
        buf_col[static_cast<size_t>(i)] = A[static_cast<size_t>(i) * KK + (k % KK)];
    MPI_Bcast(buf_col.data(), M, MPI_DOUBLE, k / KK);
    /* Start benchmarking */
    SMPI_BENCH_ONCE_RUN_ONCE_BEGIN();
    /* The local compute kernel (the paper calls cblas_dgemm here) */
    local_rank1_update(M, NN, alpha, buf_col.data(), &B[static_cast<size_t>(k) * NN], k ? 1.0 : beta,
                       C);
    /* Stop benchmarking */
    SMPI_BENCH_ONCE_RUN_ONCE_END();
  }
}

double run_on(sg::platform::Platform platform, int P, int M, const char* label) {
  bench_reset();
  const double makespan = smpi_run(std::move(platform), P, [&](int rank) {
    const int NN = M / P;
    const int KK = M / P;
    std::vector<double> A(static_cast<size_t>(M) * KK, 1.0 + rank);
    std::vector<double> B(static_cast<size_t>(M) * NN, 0.5);
    std::vector<double> C(static_cast<size_t>(M) * NN, 0.0);
    parallel_mat_mult(M, M, M, 1.0, A.data(), B.data(), 0.0, C.data());
  });
  std::printf("%-14s P=%d M=%d -> simulated makespan %.4f s\n", label, P, M, makespan);
  return makespan;
}

}  // namespace

int main(int argc, char** argv) {
  sg::config::parse_args(argc, argv);
  const int P = argc > 1 ? std::atoi(argv[1]) : 4;
  const int M = argc > 2 ? std::atoi(argv[2]) : 256;

  // Homogeneous cluster.
  sg::platform::Platform homo;
  {
    auto sw = homo.add_router("sw");
    for (int i = 0; i < P; ++i) {
      auto h = homo.add_host("h" + std::to_string(i), 1e9);
      homo.add_edge(h, sw, homo.add_link("l" + std::to_string(i), 1.25e8, 5e-5));
    }
    homo.seal();
  }
  // Heterogeneous platform: same topology, speeds 1x .. 1/P x.
  sg::platform::Platform hetero;
  {
    auto sw = hetero.add_router("sw");
    for (int i = 0; i < P; ++i) {
      auto h = hetero.add_host("h" + std::to_string(i), 1e9 / (1.0 + i));
      hetero.add_edge(h, sw, hetero.add_link("l" + std::to_string(i), 1.25e8, 5e-5));
    }
    hetero.seal();
  }

  const double t_homo = run_on(std::move(homo), P, M, "homogeneous");
  const double t_hetero = run_on(std::move(hetero), P, M, "heterogeneous");
  std::printf("heterogeneity slowdown: %.2fx (the slowest strip dominates)\n", t_hetero / t_homo);
  return 0;
}
