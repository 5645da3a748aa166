/// Tests for the MSG prototyping API, including a faithful re-run of the
/// paper's client/server listing.
#include <gtest/gtest.h>

#include <vector>

#include "config_pin.hpp"
#include "msg/msg.hpp"
#include "platform/builders.hpp"
#include "xbt/exception.hpp"

namespace {

using namespace sg::msg;

class MsgTest : public ::testing::Test {
protected:
  sg::test::NetworkPin net_;

  void TearDown() override {
    MSG_clean();
  }
};

TEST_F(MsgTest, HostLookups) {
  MSG_init(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  EXPECT_EQ(MSG_get_host_number(), 2);
  auto h = MSG_get_host_by_name("left");
  EXPECT_EQ(MSG_host_get_name(h), "left");
  EXPECT_DOUBLE_EQ(MSG_host_get_speed(h), 1e9);
  EXPECT_TRUE(MSG_host_is_on(h));
  EXPECT_THROW(MSG_get_host_by_name("nope"), sg::xbt::InvalidArgument);
}

TEST_F(MsgTest, TaskExecuteTiming) {
  MSG_init(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  double done = -1;
  MSG_process_create("worker", [&] {
    m_task_t t = MSG_task_create("work", 3e9, 0.0);
    MSG_task_execute(t);
    MSG_task_destroy(t);
    done = MSG_get_clock();
  }, MSG_get_host_by_name("left"));
  MSG_main();
  EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST_F(MsgTest, PaperClientServer) {
  // The paper's listing: client sends a "Remote" task (30 MFlop compute
  // payload / 3.2 MB comm payload) to the server, executes a local task,
  // then waits for the server's ack (0 flop, 10 KB).
  MSG_init(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  constexpr int PORT_22 = 2;
  constexpr int PORT_23 = 3;
  double client_done = -1;

  MSG_process_create("client", [&] {
    m_host_t destination = MSG_get_host_by_name("right");
    /* simulated data transfer */
    m_task_t remote = MSG_task_create("Remote", 30.0e6, 3.2e6);
    MSG_task_put(remote, destination, PORT_22);
    /* simulated task execution */
    m_task_t local = MSG_task_create("Local", 10.50e6, 3.2e6);
    MSG_task_execute(local);
    MSG_task_destroy(local);
    /* simulated data reception */
    m_task_t ack = nullptr;
    MSG_task_get(&ack, PORT_23);
    MSG_task_destroy(ack);
    client_done = MSG_get_clock();
  }, MSG_get_host_by_name("left"));

  MSG_process_create("server", [&] {
    m_task_t task = nullptr;
    MSG_task_get(&task, PORT_22);
    MSG_task_execute(task);
    m_host_t source = task->source;
    MSG_task_destroy(task);
    m_task_t ack = MSG_task_create("Ack", 0, 0.01e6);
    MSG_task_put(ack, source, PORT_23);
  }, MSG_get_host_by_name("right"));

  MSG_main();
  // transfer 3.2e6/1e8 = 0.032 ; server exec 30e6/1e9 = 0.030
  // client local exec 10.5e6/1e9 = 0.0105 (overlaps with server)
  // ack 1e4/1e8 = 1e-4. Total = 0.032 + 0.030 + 0.0001 = 0.0621
  EXPECT_NEAR(client_done, 0.0621, 1e-9);
}

TEST_F(MsgTest, TaskSourceIsFilledIn) {
  MSG_init(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  m_host_t seen_source;
  MSG_process_create("sender", [&] {
    m_task_t t = MSG_task_create("t", 0, 1e6);
    MSG_task_put(t, MSG_get_host_by_name("right"), 0);
  }, MSG_get_host_by_name("left"));
  MSG_process_create("receiver", [&] {
    m_task_t t = nullptr;
    MSG_task_get(&t, 0);
    seen_source = t->source;
    MSG_task_destroy(t);
  }, MSG_get_host_by_name("right"));
  MSG_main();
  EXPECT_EQ(seen_source, MSG_get_host_by_name("left"));
}

TEST_F(MsgTest, GetWithTimeoutThrows) {
  MSG_init(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  bool timed_out = false;
  MSG_process_create("r", [&] {
    m_task_t t = nullptr;
    try {
      MSG_task_get_with_timeout(&t, 1, 0.25);
    } catch (const sg::xbt::TimeoutException&) {
      timed_out = true;
    }
  }, MSG_host_by_index(0));
  MSG_main();
  EXPECT_TRUE(timed_out);
}

TEST_F(MsgTest, ListenProbesChannel) {
  MSG_init(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  bool before = true, after = false;
  MSG_process_create("r", [&] {
    before = MSG_task_listen(4);
    MSG_process_sleep(1.0);
    after = MSG_task_listen(4);
    m_task_t t = nullptr;
    MSG_task_get(&t, 4);
    MSG_task_destroy(t);
  }, MSG_host_by_index(0));
  MSG_process_create("s", [&] {
    m_task_t t = MSG_task_create("t", 0, 1e3);
    MSG_task_put(t, MSG_host_by_index(0), 4);
  }, MSG_host_by_index(1));
  MSG_main();
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST_F(MsgTest, ChannelRangeChecked) {
  MSG_init(sg::platform::make_dumbbell(1e9, 1e8, 0.0), /*channels=*/4);
  bool threw = false;
  MSG_process_create("r", [&] {
    m_task_t t = nullptr;
    try {
      MSG_task_get(&t, 7);
    } catch (const sg::xbt::InvalidArgument&) {
      threw = true;
    }
  }, MSG_host_by_index(0));
  MSG_main();
  EXPECT_TRUE(threw);
}

TEST_F(MsgTest, PutBoundedCapsRate) {
  MSG_init(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  double done = -1;
  MSG_process_create("s", [&] {
    m_task_t t = MSG_task_create("t", 0, 1e6);
    MSG_task_put_bounded(t, MSG_host_by_index(1), 0, 1e5);
    done = MSG_get_clock();
  }, MSG_host_by_index(0));
  MSG_process_create("r", [&] {
    m_task_t t = nullptr;
    MSG_task_get(&t, 0);
    MSG_task_destroy(t);
  }, MSG_host_by_index(1));
  MSG_main();
  EXPECT_NEAR(done, 10.0, 1e-9);
}

TEST_F(MsgTest, ProcessLifecycleOps) {
  MSG_init(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  double worker_done = -1;
  auto worker = MSG_process_create("worker", [&] {
    MSG_task_execute(std::unique_ptr<Task>(MSG_task_create("w", 2e9, 0)).get());
    worker_done = MSG_get_clock();
  }, MSG_host_by_index(0));
  MSG_process_create("boss", [&] {
    EXPECT_TRUE(MSG_process_is_alive(worker));
    EXPECT_EQ(MSG_process_get_name(worker), "worker");
    MSG_process_sleep(0.5);
    MSG_process_suspend(worker);
    MSG_process_sleep(1.0);
    MSG_process_resume(worker);
  }, MSG_host_by_index(1));
  MSG_main();
  EXPECT_DOUBLE_EQ(worker_done, 3.0);  // 2s work + 1s suspended
}

TEST_F(MsgTest, ParallelTask) {
  MSG_init(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  double done = -1;
  MSG_process_create("p", [&] {
    MSG_parallel_task_execute("pt", {MSG_host_by_index(0), MSG_host_by_index(1)},
                              {1e9, 1e9}, {{0.0, 1e8}, {0.0, 0.0}});
    done = MSG_get_clock();
  }, MSG_host_by_index(0));
  MSG_main();
  EXPECT_NEAR(done, 1.0, 1e-9);
}

TEST_F(MsgTest, ConcurrentClientsInterfereOnSharedSegment) {
  // Three clients upload simultaneously to one server through the hub
  // segment: the shared link serializes their aggregate bandwidth.
  MSG_init(sg::platform::make_client_server_lan(3, 1, 1e9, 1e9, 1e8, 0.0));
  std::vector<double> done(3, -1);
  for (int i = 0; i < 3; ++i) {
    MSG_process_create("client" + std::to_string(i), [&, i] {
      m_task_t t = MSG_task_create("data", 0, 1e8);
      MSG_task_put(t, MSG_get_host_by_name("server1"), i);
      done[static_cast<size_t>(i)] = MSG_get_clock();
    }, MSG_get_host_by_name("client" + std::to_string(i + 1)));
  }
  // One receiver per channel so all three transfers are in flight together.
  for (int i = 0; i < 3; ++i) {
    MSG_process_create("server-recv" + std::to_string(i), [i] {
      m_task_t t = nullptr;
      MSG_task_get(&t, i);
      MSG_task_destroy(t);
    }, MSG_get_host_by_name("server1"));
  }
  MSG_main();
  // All three share the 1e8 B/s hub segment -> each needs 3s.
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(done[static_cast<size_t>(i)], 3.0, 1e-6);
}

}  // namespace
