// A concrete assignment of values to every flag in a registry.
//
// Configurations start at registry defaults and are mutated by the tuner.
// They render to real-looking HotSpot command lines and can be diffed
// against the defaults to report "what the tuner changed" (Table T6).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "flags/registry.hpp"

namespace jat {

class Configuration {
 public:
  /// All flags at their registry defaults.
  explicit Configuration(const FlagRegistry& registry);

  const FlagRegistry& registry() const { return *registry_; }
  std::size_t size() const { return values_.size(); }

  const FlagValue& get(FlagId id) const;
  const FlagValue& get(std::string_view name) const;

  /// Typed convenience getters (throw FlagError on type mismatch).
  bool get_bool(std::string_view name) const;
  std::int64_t get_int(std::string_view name) const;
  double get_double(std::string_view name) const;
  const std::string& get_enum(std::string_view name) const;

  /// Sets a value. Throws FlagError if the value is outside the flag's
  /// domain — tuners must produce in-domain values by construction; the
  /// *semantic* cross-flag constraints are checked separately (validate.hpp).
  void set(FlagId id, FlagValue value);
  void set(std::string_view name, FlagValue value);
  void set_bool(std::string_view name, bool value);
  void set_int(std::string_view name, std::int64_t value);
  void set_double(std::string_view name, double value);
  void set_enum(std::string_view name, std::string value);

  /// True when the flag still holds its registry default.
  bool is_default(FlagId id) const;

  /// Ids of flags that differ from their defaults, ascending.
  std::vector<FlagId> changed_flags() const;

  /// Renders one flag as HotSpot syntax: "-XX:+UseG1GC", "-XX:MaxHeapSize=512m".
  std::string render_flag(FlagId id) const;

  /// Full command-line fragment containing only non-default flags.
  std::string render_command_line() const;

  /// Order-independent 64-bit fingerprint of all values (used as the cache /
  /// result-db key; equal configurations hash equal). A persisted format:
  /// it keys result logs, journals and stores. Costs one mix step per flag
  /// plus a render of each non-default flag, so hot paths compute it once
  /// per evaluation and pass it along.
  std::uint64_t fingerprint() const;

  friend bool operator==(const Configuration& a, const Configuration& b) {
    return a.registry_ == b.registry_ && a.values_ == b.values_;
  }

 private:
  const FlagRegistry* registry_;
  std::vector<FlagValue> values_;
};

}  // namespace jat
