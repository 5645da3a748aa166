/// Tests for the execution tracer and Gantt rendering.
#include <gtest/gtest.h>

#include "config_pin.hpp"
#include "core/engine.hpp"
#include "msg/msg.hpp"
#include "platform/builders.hpp"
#include "viz/gantt.hpp"

namespace {

using namespace sg::viz;

class VizTest : public ::testing::Test {
protected:
  sg::test::NetworkPin net_;

  void TearDown() override {
    sg::msg::MSG_clean();
  }
};

TEST_F(VizTest, RecordsExecAndComm) {
  sg::core::Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  Tracer tracer(e);
  auto exec = e.exec_start(0, 1e9, 1.0, "work");
  auto comm = e.comm_start(0, 1, 5e7, -1.0, "xfer");
  while (e.running_action_count() > 0)
    e.run_until();
  (void)exec;
  (void)comm;
  // 1 exec interval + send + recv mirror = 3
  ASSERT_EQ(tracer.intervals().size(), 3u);
  int computes = 0, sends = 0, recvs = 0;
  for (const auto& iv : tracer.intervals()) {
    if (iv.kind == IntervalKind::kCompute) {
      ++computes;
      EXPECT_EQ(iv.host, 0);
      EXPECT_DOUBLE_EQ(iv.start, 0.0);
      EXPECT_DOUBLE_EQ(iv.end, 1.0);
    } else if (iv.kind == IntervalKind::kCommSend) {
      ++sends;
      EXPECT_EQ(iv.host, 0);
    } else if (iv.kind == IntervalKind::kCommRecv) {
      ++recvs;
      EXPECT_EQ(iv.host, 1);
    }
  }
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
  EXPECT_DOUBLE_EQ(tracer.horizon(), 1.0);
}

TEST_F(VizTest, AsciiRenderShape) {
  sg::core::Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  Tracer tracer(e);
  auto a = e.exec_start(0, 1e9);
  while (e.running_action_count() > 0)
    e.run_until();
  (void)a;
  const std::string chart = tracer.render_ascii(40);
  // Two host rows plus header.
  EXPECT_NE(chart.find("left"), std::string::npos);
  EXPECT_NE(chart.find("right"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);   // compute drawn
  EXPECT_NE(chart.find("|"), std::string::npos);
}

TEST_F(VizTest, CsvExport) {
  sg::core::Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  Tracer tracer(e);
  auto a = e.exec_start(0, 1e9, 1.0, "my-task");
  while (e.running_action_count() > 0)
    e.run_until();
  (void)a;
  const std::string csv = tracer.to_csv();
  EXPECT_NE(csv.find("host,name,kind,start,end"), std::string::npos);
  EXPECT_NE(csv.find("my-task"), std::string::npos);
  EXPECT_NE(csv.find("compute"), std::string::npos);
}

TEST_F(VizTest, EmptyTracerRenders) {
  sg::core::Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  Tracer tracer(e);
  EXPECT_EQ(tracer.render_ascii(), "(empty gantt)\n");
}

TEST_F(VizTest, MsgScenarioProducesPlausibleGantt) {
  // Mini version of the paper's figure via the MSG layer.
  using namespace sg::msg;
  MSG_init(sg::platform::make_client_server_lan(2, 1, 1e9, 1e9, 1e7, 1e-4));
  Tracer tracer(MSG_kernel().engine());
  for (int i = 0; i < 2; ++i) {
    MSG_process_create("client" + std::to_string(i + 1), [i] {
      m_task_t t = MSG_task_create("data", 1e8, 1e7);
      MSG_task_put(t, MSG_get_host_by_name("server1"), i);
    }, MSG_get_host_by_name("client" + std::to_string(i + 1)));
  }
  for (int i = 0; i < 2; ++i) {
    MSG_process_create("srv" + std::to_string(i), [i] {
      m_task_t t = nullptr;
      MSG_task_get(&t, i);
      MSG_task_execute(t);
      MSG_task_destroy(t);
    }, MSG_get_host_by_name("server1"));
  }
  MSG_main();
  // Two transfers (send+recv each) and two server executions.
  int computes = 0, sends = 0;
  for (const auto& iv : tracer.intervals()) {
    computes += iv.kind == IntervalKind::kCompute;
    sends += iv.kind == IntervalKind::kCommSend;
  }
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(sends, 2);
  tracer.detach();
}

}  // namespace
