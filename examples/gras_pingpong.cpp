/// The paper's GRAS ping-pong, written once and deployed both ways:
///   ./gras_pingpong sim    — runs inside the simulator (SURF timing)
///   ./gras_pingpong real   — runs over real TCP sockets on localhost
/// The client/server bodies are shared verbatim between the two modes —
/// the paper's headline GRAS feature ("unmodified code run in simulation
/// mode or in real-world mode").
#include <cstdio>
#include <cstring>

#include "gras/gras.hpp"
#include "platform/platform.hpp"
#include "xbt/settings.hpp"

using namespace sg::gras;
using sg::datadesc::Value;
using sg::datadesc::datadesc_by_name;

namespace {

void declare_types() {
  msgtype_declare("ping", datadesc_by_name("int")); /* name, payload */
  msgtype_declare("pong", datadesc_by_name("int"));
}

void client() {
  declare_types();
  os_sleep(1.0); /* Wait for the server startup (as in the paper) */

  auto peer = socket_client("server-host", 4000);
  int ping = 1234;
  std::printf("[%8.3f] client: sending ping=%d\n", os_time(), ping);
  msg_send(peer, "ping", Value(ping)); /* dest, msgtype, payload */

  Message m = msg_wait(6.0, "pong"); /* timeout, wanted msgtype */
  std::printf("[%8.3f] client: got pong=%ld from %s\n", os_time(), (long)m.payload.as_int(),
              m.source->peer().c_str());
}

void server() {
  declare_types();
  cb_register("ping", [](Message& m) {
    const int msg = static_cast<int>(m.payload.as_int());
    std::printf("[%8.3f] server: got ping=%d\n", os_time(), msg);
    GRAS_BENCH_ALWAYS_BEGIN();
    /* Some computation whose duration should be simulated */
    volatile double x = 1.0;
    for (int i = 0; i < 1000000; ++i)
      x = x * 1.0000001;
    GRAS_BENCH_ALWAYS_END();
    /* Send data back as payload of pong message to the ping's source */
    msg_send(m.source, "pong", Value(msg + 1));
  });
  socket_server(4000);
  msg_handle(600.0); /* wait for next message (up to 600s) and handle it */
}

}  // namespace

int main(int argc, char** argv) {
  sg::config::parse_args(argc, argv);
  const bool real = argc > 1 && std::strcmp(argv[1], "real") == 0;

  if (real) {
    std::printf("=== GRAS ping-pong, real-world mode (TCP on localhost) ===\n");
    RealWorld world;
    world.spawn("server", "server-host", server);
    world.spawn("client", "client-host", client);
    const double wall = world.join_all();
    std::printf("done in %.3f wall seconds\n", wall);
  } else {
    std::printf("=== GRAS ping-pong, simulation mode ===\n");
    sg::platform::Platform p;
    auto c = p.add_host("client-host", 1e9);
    auto s = p.add_host("server-host", 1e9);
    p.add_route(c, s, {p.add_link("wan", 1.25e6, 2.5e-2)});
    SimWorld world(std::move(p));
    world.spawn("server", "server-host", server);
    world.spawn("client", "client-host", client);
    const double end = world.run();
    std::printf("done at t=%.3f simulated seconds\n", end);
  }
  return 0;
}
