/// \file runtime.hpp
/// Internal: the virtualization layer that lets the same GRAS code run on
/// the simulator or on real sockets. Each GRAS process is bound to one
/// Runtime implementing the transport and the clock — keyed by the current
/// kernel actor in simulation mode (fibers share one OS thread, so a
/// thread-local cannot tell simulated processes apart) and by a thread-local
/// in real-life mode (one OS thread per process).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gras/gras.hpp"

namespace sg::gras::detail {

class Runtime {
public:
  virtual ~Runtime() = default;

  virtual void socket_server(int port) = 0;
  virtual SocketPtr socket_client(const std::string& host, int port) = 0;
  virtual void msg_send(const SocketPtr& socket, const std::string& type,
                        const datadesc::Value& payload) = 0;
  /// Wait for a message of type `want` (any type when empty).
  virtual Message msg_wait(double timeout, const std::string& want) = 0;

  virtual double time() = 0;
  virtual void sleep(double seconds) = 0;
  /// Account `seconds` of measured real computation (simulation mode turns
  /// this into a simulated execution; real mode does nothing).
  virtual void inject_compute(double seconds) = 0;

  const std::string& name() const { return name_; }

  /// Per-process callback table (msg_handle dispatch).
  std::map<std::string, std::function<void(Message&)>> callbacks;

protected:
  explicit Runtime(std::string name) : name_(std::move(name)) {}
  std::string name_;
};

/// The runtime of the calling real-life GRAS process (null outside any).
Runtime*& tl_runtime();

/// Fetch + check: throws InvalidArgument outside a GRAS process.
Runtime& current_runtime();

/// RAII binding of a Runtime to the calling process for its lifetime:
/// registers against the current kernel actor when inside a simulation,
/// against the current thread otherwise.
class CurrentScope {
public:
  explicit CurrentScope(Runtime* rt);
  ~CurrentScope();
  CurrentScope(const CurrentScope&) = delete;
  CurrentScope& operator=(const CurrentScope&) = delete;

private:
  long actor_id_;  ///< -1 when bound through the thread-local
};

/// Encoded-message framing overhead added to the simulated/real wire size.
constexpr size_t kHeaderOverhead = 16;

/// Largest payload a real-mode frame may announce. The length comes from the
/// peer, so a larger one is refused before any buffer is sized from it.
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// One real-mode wire frame: message type name and encoded payload.
struct Frame {
  std::string type;
  std::vector<std::uint8_t> wire;
};

/// Read one frame from a connected socket (format in real.cpp). Returns
/// false on orderly EOF at a frame boundary; throws NetworkFailureException
/// on a bad magic, a short read, or a payload above kMaxFramePayload.
bool recv_frame(int fd, Frame& out);

}  // namespace sg::gras::detail
