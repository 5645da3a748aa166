/// Tests for SMPI: point-to-point semantics (matching, wildcards, unexpected
/// messages, eager vs rendezvous), every collective, timing on heterogeneous
/// platforms, and the SMPI_BENCH replay machinery.
#include <gtest/gtest.h>

#include <numeric>

#include "config_pin.hpp"
#include "core/engine.hpp"
#include "platform/builders.hpp"
#include "smpi/smpi.hpp"
#include "xbt/exception.hpp"

namespace {

using namespace sg::smpi;

class SmpiTest : public ::testing::Test {
protected:
  sg::test::NetworkPin net_;

  void TearDown() override {
    bench_reset();
  }

  static sg::platform::Platform cluster(int n, double speed = 1e9) {
    sg::platform::ClusterSpec spec;
    spec.count = n;
    spec.host_speed = speed;
    spec.link_bandwidth = 1.25e8;
    spec.link_latency = 1e-5;
    spec.backbone_bandwidth = 1.25e9;
    return sg::platform::make_cluster(spec);
  }
};

TEST_F(SmpiTest, RankAndSize) {
  std::vector<int> seen(4, -1);
  smpi_run(cluster(4), 4, [&](int rank) {
    EXPECT_EQ(MPI_Comm_rank(), rank);
    EXPECT_EQ(MPI_Comm_size(), 4);
    seen[static_cast<size_t>(rank)] = rank;
  });
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(seen[static_cast<size_t>(r)], r);
}

TEST_F(SmpiTest, SendRecvRoundTrip) {
  int received = -1;
  smpi_run(cluster(2), 2, [&](int rank) {
    if (rank == 0) {
      int value = 4242;
      MPI_Send(&value, 1, MPI_INT, 1, 0);
    } else {
      Status st;
      int value = 0;
      MPI_Recv(&value, 1, MPI_INT, 0, 0, &st);
      received = value;
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 0);
      EXPECT_EQ(st.bytes, sizeof(int));
    }
  });
  EXPECT_EQ(received, 4242);
}

TEST_F(SmpiTest, TagMatchingOutOfOrder) {
  // Messages with tag 2 then tag 1; receiver asks for tag 1 first.
  std::vector<int> order;
  smpi_run(cluster(2), 2, [&](int rank) {
    if (rank == 0) {
      int a = 100, b = 200;
      MPI_Send(&a, 1, MPI_INT, 1, /*tag=*/2);
      MPI_Send(&b, 1, MPI_INT, 1, /*tag=*/1);
    } else {
      int v = 0;
      MPI_Recv(&v, 1, MPI_INT, 0, 1);
      order.push_back(v);  // 200
      MPI_Recv(&v, 1, MPI_INT, 0, 2);
      order.push_back(v);  // 100 (from the unexpected queue)
    }
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 200);
  EXPECT_EQ(order[1], 100);
}

TEST_F(SmpiTest, AnySourceAnyTag) {
  int total = 0;
  smpi_run(cluster(4), 4, [&](int rank) {
    if (rank == 0) {
      for (int i = 0; i < 3; ++i) {
        int v = 0;
        Status st;
        MPI_Recv(&v, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG, &st);
        EXPECT_EQ(v, st.source * 10 + st.tag);
        total += v;
      }
    } else {
      int v = rank * 10 + rank;
      MPI_Send(&v, 1, MPI_INT, 0, rank);
    }
  });
  EXPECT_EQ(total, 11 + 22 + 33);
}

TEST_F(SmpiTest, EagerSendDoesNotBlock) {
  // Both ranks MPI_Send before MPI_Recv: safe for small (eager) messages.
  bool done = false;
  smpi_run(cluster(2), 2, [&](int rank) {
    const int peer = 1 - rank;
    int mine = rank, theirs = -1;
    MPI_Send(&mine, 1, MPI_INT, peer, 7);
    MPI_Recv(&theirs, 1, MPI_INT, peer, 7);
    EXPECT_EQ(theirs, peer);
    if (rank == 0)
      done = true;
  });
  EXPECT_TRUE(done);
}

TEST_F(SmpiTest, LargeMessageRendezvous) {
  // Above the eager threshold the sender blocks until the receiver arrives.
  double send_done = -1;
  smpi_run(cluster(2), 2, [&](int rank) {
    const int n = 1 << 20;  // 4 MiB of ints > 64 KiB threshold
    static std::vector<int> buf(static_cast<size_t>(n), 5);
    if (rank == 0) {
      MPI_Send(buf.data(), n, MPI_INT, 1, 0);
      send_done = MPI_Wtime();
    } else {
      static std::vector<int> in(static_cast<size_t>(n));
      SMPI_Compute(2e9);  // receiver busy for 2 simulated seconds
      MPI_Recv(in.data(), n, MPI_INT, 0, 0);
      EXPECT_EQ(in[12345], 5);
    }
  });
  EXPECT_GT(send_done, 2.0);  // sender had to wait for the rendezvous
}

TEST_F(SmpiTest, IsendIrecvOverlap) {
  std::vector<int> got(2, -1);
  smpi_run(cluster(2), 2, [&](int rank) {
    const int peer = 1 - rank;
    int mine = 1000 + rank, theirs = -1;
    Request s = MPI_Isend(&mine, 1, MPI_INT, peer, 3);
    Request r = MPI_Irecv(&theirs, 1, MPI_INT, peer, 3);
    MPI_Wait(r);
    MPI_Wait(s);
    got[static_cast<size_t>(rank)] = theirs;
  });
  EXPECT_EQ(got[0], 1001);
  EXPECT_EQ(got[1], 1000);
}

TEST_F(SmpiTest, WaitallCompletesEverything) {
  int sum = 0;
  smpi_run(cluster(4), 4, [&](int rank) {
    if (rank == 0) {
      std::vector<int> vals(3);
      std::vector<Request> reqs;
      for (int r = 1; r < 4; ++r)
        reqs.push_back(MPI_Irecv(&vals[static_cast<size_t>(r - 1)], 1, MPI_INT, r, 0));
      MPI_Waitall(reqs);
      sum = vals[0] + vals[1] + vals[2];
    } else {
      MPI_Send(&rank, 1, MPI_INT, 0, 0);
    }
  });
  EXPECT_EQ(sum, 6);
}

TEST_F(SmpiTest, Barrier) {
  // After the barrier, everyone must have seen everyone's pre-barrier mark.
  std::vector<int> marks(8, 0);
  bool ok = true;
  smpi_run(cluster(8), 8, [&](int rank) {
    marks[static_cast<size_t>(rank)] = 1;
    MPI_Barrier();
    for (int r = 0; r < 8; ++r)
      if (marks[static_cast<size_t>(r)] != 1)
        ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST_F(SmpiTest, BcastAllRootsAllSizes) {
  for (int size : {2, 3, 5, 8}) {
    for (int root = 0; root < size; ++root) {
      std::vector<int> results(static_cast<size_t>(size), -1);
      smpi_run(cluster(size), size, [&, root](int rank) {
        int v = (rank == root) ? 777 : 0;
        MPI_Bcast(&v, 1, MPI_INT, root);
        results[static_cast<size_t>(rank)] = v;
      });
      for (int r = 0; r < size; ++r)
        EXPECT_EQ(results[static_cast<size_t>(r)], 777) << "size " << size << " root " << root;
    }
  }
}

TEST_F(SmpiTest, ReduceSumDoubles) {
  double result = 0;
  const int P = 6;
  smpi_run(cluster(P), P, [&](int rank) {
    double v = rank + 1.5;
    double out = 0;
    MPI_Reduce(&v, &out, 1, MPI_DOUBLE, MPI_SUM, 2);
    if (rank == 2)
      result = out;
  });
  double expect = 0;
  for (int r = 0; r < P; ++r)
    expect += r + 1.5;
  EXPECT_DOUBLE_EQ(result, expect);
}

TEST_F(SmpiTest, ReduceMaxMinProd) {
  int rmax = 0, rmin = 0, rprod = 0;
  smpi_run(cluster(4), 4, [&](int rank) {
    int v = rank + 1;
    int out = 0;
    MPI_Reduce(&v, &out, 1, MPI_INT, MPI_MAX, 0);
    if (rank == 0)
      rmax = out;
    MPI_Reduce(&v, &out, 1, MPI_INT, MPI_MIN, 0);
    if (rank == 0)
      rmin = out;
    MPI_Reduce(&v, &out, 1, MPI_INT, MPI_PROD, 0);
    if (rank == 0)
      rprod = out;
  });
  EXPECT_EQ(rmax, 4);
  EXPECT_EQ(rmin, 1);
  EXPECT_EQ(rprod, 24);
}

TEST_F(SmpiTest, AllreduceVector) {
  bool all_ok = true;
  const int P = 5;
  smpi_run(cluster(P), P, [&](int rank) {
    std::vector<double> v{double(rank), double(rank * 2)};
    std::vector<double> out(2);
    MPI_Allreduce(v.data(), out.data(), 2, MPI_DOUBLE, MPI_SUM);
    if (out[0] != 0 + 1 + 2 + 3 + 4 || out[1] != 2 * (0 + 1 + 2 + 3 + 4))
      all_ok = false;
  });
  EXPECT_TRUE(all_ok);
}

TEST_F(SmpiTest, GatherScatter) {
  std::vector<int> gathered(6, -1);
  std::vector<int> scattered(6, -1);
  smpi_run(cluster(6), 6, [&](int rank) {
    int v = rank * rank;
    std::vector<int> all(6);
    MPI_Gather(&v, 1, MPI_INT, all.data(), 0);
    if (rank == 0) {
      gathered = all;
      for (int i = 0; i < 6; ++i)
        all[static_cast<size_t>(i)] = 100 + i;
    }
    int mine = -1;
    MPI_Scatter(all.data(), 1, MPI_INT, &mine, 0);
    scattered[static_cast<size_t>(rank)] = mine;
  });
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(gathered[static_cast<size_t>(r)], r * r);
    EXPECT_EQ(scattered[static_cast<size_t>(r)], 100 + r);
  }
}

TEST_F(SmpiTest, Allgather) {
  bool ok = true;
  const int P = 7;
  smpi_run(cluster(P), P, [&](int rank) {
    int v = 10 * rank;
    std::vector<int> all(P, -1);
    MPI_Allgather(&v, 1, MPI_INT, all.data());
    for (int r = 0; r < P; ++r)
      if (all[static_cast<size_t>(r)] != 10 * r)
        ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST_F(SmpiTest, Alltoall) {
  bool ok = true;
  const int P = 4;
  smpi_run(cluster(P), P, [&](int rank) {
    std::vector<int> send(P), recv(P, -1);
    for (int r = 0; r < P; ++r)
      send[static_cast<size_t>(r)] = rank * 100 + r;  // destined to r
    MPI_Alltoall(send.data(), 1, MPI_INT, recv.data());
    for (int r = 0; r < P; ++r)
      if (recv[static_cast<size_t>(r)] != r * 100 + rank)
        ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST_F(SmpiTest, WtimeAdvancesWithCompute) {
  double t0 = -1, t1 = -1;
  smpi_run(cluster(1), 1, [&](int) {
    t0 = MPI_Wtime();
    SMPI_Compute(3e9);
    t1 = MPI_Wtime();
  });
  EXPECT_DOUBLE_EQ(t0, 0.0);
  EXPECT_DOUBLE_EQ(t1, 3.0);
}

TEST_F(SmpiTest, HeterogeneitySlowsReplay) {
  // SMPI_BENCH_ONCE measures on the (fast) measuring host, then replays the
  // same flops on a host 4x slower -> 4x the simulated time.
  sg::platform::Platform p;
  p.add_host("fast", 4e9);
  p.add_host("slow", 1e9);
  auto l = p.add_link("l", 1.25e8, 1e-5);
  p.add_route(p.node_by_name("fast").value(), p.node_by_name("slow").value(), {l});
  std::vector<double> elapsed(2, -1);
  smpi_run(std::move(p), 2, [&](int rank) {
    MPI_Barrier();
    const double t0 = MPI_Wtime();
    // rank 0 measures for real; rank 1 replays the recorded flops.
    if (rank == 1) {
      int token;
      MPI_Recv(&token, 1, MPI_INT, 0, 9);  // wait until rank 0 measured
    }
    SMPI_BENCH_ONCE_RUN_ONCE_BEGIN();
    volatile double x = 1.0;
    for (int i = 0; i < 5000000; ++i)
      x = x * 1.0000001;
    SMPI_BENCH_ONCE_RUN_ONCE_END();
    if (rank == 0) {
      int token = 1;
      MPI_Send(&token, 1, MPI_INT, 1, 9);
    }
    elapsed[static_cast<size_t>(rank)] = MPI_Wtime() - t0;
  }, {"fast", "slow"});
  ASSERT_GT(elapsed[0], 0.0);
  // rank1's time includes waiting for the token; subtract rank0's part...
  // easier invariant: replay on the 4x slower host takes ~4x the measured
  // simulated time of rank 0.
  EXPECT_GT(elapsed[1], elapsed[0] * 2.0);
}

TEST_F(SmpiTest, CommunicationTimeScalesWithSize) {
  std::vector<double> times;
  for (double mb : {1.0, 4.0}) {
    double recv_done = -1;
    smpi_run(cluster(2), 2, [&, mb](int rank) {
      const int n = static_cast<int>(mb * 1e6 / 8);
      static std::vector<double> buf;
      buf.assign(static_cast<size_t>(n), 1.0);
      if (rank == 0) {
        MPI_Send(buf.data(), n, MPI_DOUBLE, 1, 0);
      } else {
        MPI_Recv(buf.data(), n, MPI_DOUBLE, 0, 0);
        recv_done = MPI_Wtime();
      }
    });
    times.push_back(recv_done);
  }
  // 4x the bytes ≈ 4x the transfer time (latency negligible here).
  EXPECT_NEAR(times[1] / times[0], 4.0, 0.3);
}

TEST_F(SmpiTest, InvalidRankRejected) {
  bool threw = false;
  smpi_run(cluster(2), 2, [&](int rank) {
    if (rank == 0) {
      int v = 0;
      try {
        MPI_Send(&v, 1, MPI_INT, 7, 0);
      } catch (const sg::xbt::InvalidArgument&) {
        threw = true;
      }
    }
  });
  EXPECT_TRUE(threw);
}

TEST_F(SmpiTest, TruncatedRecvRejected) {
  bool threw = false;
  smpi_run(cluster(2), 2, [&](int rank) {
    if (rank == 0) {
      std::vector<int> v(8, 1);
      MPI_Send(v.data(), 8, MPI_INT, 1, 0);
    } else {
      int v[2];
      try {
        MPI_Recv(v, 2, MPI_INT, 0, 0);
      } catch (const sg::xbt::InvalidArgument&) {
        threw = true;
      }
    }
  });
  EXPECT_TRUE(threw);
}

}  // namespace
