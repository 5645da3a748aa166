#include "xbt/settings.hpp"

#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <variant>

#include "xbt/exception.hpp"
#include "xbt/str.hpp"

namespace sg::config {
namespace {

/// The typed value; the alternative index is the key's Type.
using Value = std::variant<bool, long, double, std::string>;

struct Entry {
  Value value;
  long min = 0, max = 0;  ///< IntKey range
  std::string description;
  std::string env;
  Type type() const { return static_cast<Type>(value.index()); }
};

std::map<std::string, Entry, std::less<>>& registry() {
  static std::map<std::string, Entry, std::less<>> r;
  return r;
}

const char* type_name(Type t) {
  switch (t) {
    case Type::kFlag: return "flag";
    case Type::kInt: return "int";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
  }
  return "?";
}

[[noreturn]] void throw_unknown(std::string_view key) {
  std::string msg = "unknown config key: " + std::string(key) + " (valid keys:";
  bool first = true;
  for (const auto& [name, entry] : registry()) {
    msg += first ? " " : ", ";
    msg += name;
    first = false;
  }
  if (first)
    msg += " none declared yet";
  msg += ")";
  throw xbt::InvalidArgument(msg);
}

Entry& require(std::string_view key, Type want) {
  auto it = registry().find(key);
  if (it == registry().end())
    throw_unknown(key);
  if (it->second.type() != want)
    throw xbt::InvalidArgument("config key " + std::string(key) + " is a " +
                               type_name(it->second.type()) + ", accessed as a " + type_name(want));
  return it->second;
}

/// "config key K: <what>", plus the environment variable when it is the source.
[[noreturn]] void throw_bad(std::string_view key, const std::string& what, const char* env) {
  std::string msg = "config key " + std::string(key) + ": " + what;
  if (env != nullptr)
    msg += std::string(" (from environment variable ") + env + ")";
  throw xbt::InvalidArgument(msg);
}

void check_range(std::string_view key, const Entry& e, double value, const char* env) {
  if (value < static_cast<double>(e.min) || value > static_cast<double>(e.max))
    throw_bad(key,
              "value " + xbt::format("%g", value) + " outside [" + std::to_string(e.min) + ", " +
                  std::to_string(e.max) + "]",
              env);
}

/// The one parser for text from outside the program (--cfg items, env seeds).
Value parse(std::string_view key, const Entry& e, std::string_view raw, const char* env) {
  const std::string text = xbt::trim(raw);
  if (e.type() == Type::kString)
    return text;
  if (e.type() == Type::kFlag) {
    if (text == "1" || text == "true" || text == "on" || text == "yes")
      return true;
    if (text == "0" || text == "false" || text == "off" || text == "no")
      return false;
    throw_bad(key, "'" + text + "' is not a flag (0/1/true/false/on/off/yes/no)", env);
  }
  char* end = nullptr;
  const double num = std::strtod(text.c_str(), &end);
  const char* want = e.type() == Type::kInt ? "an integer" : "a number";
  if (text.empty() || *end != '\0')
    throw_bad(key, "'" + text + "' is not " + want, env);
  if (e.type() == Type::kNumber)
    return num;
  if (num != std::floor(num))
    throw_bad(key, "'" + text + "' is not " + want, env);
  check_range(key, e, num, env);
  return static_cast<long>(num);
}

void declare_entry(std::string_view key, Value def, long min, long max,
                   const std::string& description, const char* env) {
  if (registry().find(key) != registry().end())
    return;
  Entry e{std::move(def), min, max, description, env != nullptr ? env : ""};
  if (env != nullptr)
    if (const char* text = std::getenv(env); text != nullptr && !xbt::trim(text).empty())
      e.value = parse(key, e, text, env);
  registry().emplace(std::string(key), std::move(e));
}

}  // namespace

void declare(FlagKey key, bool default_value, const std::string& description, const char* env) {
  declare_entry(key.name, default_value, 0, 0, description, env);
}

void declare(IntKey key, long default_value, long min, long max, const std::string& description,
             const char* env) {
  declare_entry(key.name, default_value, min, max, description, env);
}

void declare(NumberKey key, double default_value, const std::string& description, const char* env) {
  declare_entry(key.name, default_value, 0, 0, description, env);
}

void declare(StringKey key, const std::string& default_value, const std::string& description,
             const char* env) {
  declare_entry(key.name, default_value, 0, 0, description, env);
}

bool get(FlagKey key) { return std::get<bool>(require(key.name, Type::kFlag).value); }
long get(IntKey key) { return std::get<long>(require(key.name, Type::kInt).value); }
double get(NumberKey key) { return std::get<double>(require(key.name, Type::kNumber).value); }
std::string get(StringKey key) { return std::get<std::string>(require(key.name, Type::kString).value); }

void set(FlagKey key, bool value) { require(key.name, Type::kFlag).value = value; }

void set(IntKey key, long value) {
  Entry& e = require(key.name, Type::kInt);
  check_range(key.name, e, static_cast<double>(value), nullptr);
  e.value = value;
}

void set(NumberKey key, double value) { require(key.name, Type::kNumber).value = value; }
void set(StringKey key, const std::string& value) { require(key.name, Type::kString).value = value; }

void apply(std::string_view spec) {
  for (const std::string& item : xbt::split(spec, ',', /*skip_empty=*/true)) {
    const size_t colon = item.find(':');
    if (colon == std::string::npos)
      throw xbt::InvalidArgument("bad config item (want key:value): " + item);
    const std::string key = xbt::trim(std::string_view(item).substr(0, colon));
    auto it = registry().find(key);
    if (it == registry().end())
      throw_unknown(key);
    it->second.value = parse(key, it->second, std::string_view(item).substr(colon + 1), nullptr);
  }
}

std::vector<KeyInfo> keys() {
  std::vector<KeyInfo> out;
  out.reserve(registry().size());
  for (const auto& [name, e] : registry())
    out.push_back(KeyInfo{name, e.type(), e.description, e.env});
  return out;
}

}  // namespace sg::config
