/// \file config_pin.hpp
/// Test-local RAII pinning of typed config keys: a pin saves the key's
/// current value, sets the pinned one, and restores what it saved when it
/// goes out of scope — so a fixture never hard-codes a copy of a default.
#pragma once

#include "core/engine.hpp"
#include "xbt/settings.hpp"

namespace sg::test {

template <class Key>
class ConfigPin {
public:
  using Value = decltype(config::get(Key{}));

  ConfigPin(Key key, Value value) : key_(key), saved_(config::get(key)) { config::set(key, value); }
  ~ConfigPin() { config::set(key_, saved_); }
  ConfigPin(const ConfigPin&) = delete;
  ConfigPin& operator=(const ConfigPin&) = delete;

private:
  Key key_;
  Value saved_;
};

/// Declares the engine's keys; listed first in a fixture so later pins can
/// read them.
struct EngineKeys {
  EngineKeys() { core::declare_engine_config(); }
};

/// The network model pinned for a test: by default an ideal network (full
/// nominal bandwidth, no TCP window cap), so analytic timings are exact.
struct NetworkPin {
  explicit NetworkPin(double bandwidth_factor = 1.0, double tcp_gamma = 1e18)
      : factor(core::kCfgBandwidthFactor, bandwidth_factor), gamma(core::kCfgTcpGamma, tcp_gamma) {}

  EngineKeys declared;
  ConfigPin<config::NumberKey> factor;
  ConfigPin<config::NumberKey> gamma;
};

}  // namespace sg::test
