/// \file config_args.cpp
/// sg::config::parse_args — the one place that knows every key owner, so a
/// `--cfg` item can name any library key before the program builds anything.
#include <string_view>

#include "core/engine.hpp"
#include "kernel/context.hpp"
#include "kernel/membership.hpp"
#include "platform/platform.hpp"
#include "smpi/smpi.hpp"
#include "xbt/settings.hpp"

namespace sg::config {

void parse_args(int& argc, char** argv) {
  core::declare_engine_config();
  kernel::declare_context_config();
  kernel::declare_membership_config();
  platform::declare_platform_config();
  smpi::declare_smpi_config();
  constexpr std::string_view kPrefix = "--cfg=";
  int kept = argc > 0 ? 1 : 0;  // argv[0] is the program name
  for (int i = kept; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(kPrefix))
      apply(arg.substr(kPrefix.size()));
    else
      argv[kept++] = argv[i];
  }
  argc = kept;
  argv[argc] = nullptr;
}

}  // namespace sg::config
