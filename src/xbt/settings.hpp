/// \file settings.hpp
/// sg::config — the typed configuration registry and the one config store.
///
/// Each key is declared ONCE with a static type, a default, a description,
/// and (optionally) the environment variable that seeds it; the registry
/// entry holds the typed value next to that metadata. Call sites use typed
/// key handles:
///
///   namespace cfg = sg::config;
///   constexpr cfg::IntKey kThreads{"engine/threads"};
///   cfg::declare(kThreads, 1, 1, 1024, "worker threads", "SG_THREADS");
///   int n = cfg::get(kThreads);
///
/// Text from outside the program (`--cfg=key:value` items and env seeds)
/// goes through one parser per type: flags accept 0/1/true/false/on/off/
/// yes/no, ints must be integral and inside the declared range, numbers
/// must be a whole-string decimal, strings are trimmed. Malformed or
/// out-of-range text throws xbt::InvalidArgument naming the key (and the
/// environment variable when that is the source).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sg::config {

enum class Type { kFlag, kInt, kNumber, kString };

/// Typed key handles. Intentionally trivial (a tagged name) so keys can be
/// constexpr constants next to the module that owns them.
struct FlagKey { const char* name; };    ///< boolean
struct IntKey { const char* name; };     ///< integer with a declared range
struct NumberKey { const char* name; };  ///< double
struct StringKey { const char* name; };  ///< string

/// Declare a key (idempotent: re-declaring keeps the current value).
/// `env`, when given, names the environment variable whose value seeds the
/// default the first time the key is declared; an empty variable is
/// ignored, a malformed one throws.
void declare(FlagKey key, bool default_value, const std::string& description,
             const char* env = nullptr);
void declare(IntKey key, long default_value, long min, long max, const std::string& description,
             const char* env = nullptr);
void declare(NumberKey key, double default_value, const std::string& description,
             const char* env = nullptr);
void declare(StringKey key, const std::string& default_value, const std::string& description,
             const char* env = nullptr);

/// Typed reads. Throw xbt::InvalidArgument when the key was never declared
/// (listing the valid keys) or was declared with a different type.
bool get(FlagKey key);
long get(IntKey key);
double get(NumberKey key);
std::string get(StringKey key);

/// Typed writes, same diagnostics as the getters; IntKey enforces its range.
void set(FlagKey key, bool value);
void set(IntKey key, long value);
void set(NumberKey key, double value);
void set(StringKey key, const std::string& value);

/// Apply "key:value,key:value" through the typed parsers.
void apply(std::string_view spec);

/// Declare every library key, then apply and remove each `--cfg=key:value`
/// argument, so the remaining positional arguments parse as before. Call it
/// first in main().
void parse_args(int& argc, char** argv);

/// One row of the registry table (sorted by name): drives documentation and
/// the diagnostics that list valid keys.
struct KeyInfo {
  std::string name;
  Type type = Type::kNumber;
  std::string description;
  std::string env;  ///< seeding environment variable, empty if none
};
std::vector<KeyInfo> keys();

}  // namespace sg::config
