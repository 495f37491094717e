// The flag registry: the full catalog of tunable HotSpot flags.
//
// Mirrors `java -XX:+PrintFlagsFinal`: one FlagSpec per flag, looked up by
// name or by dense index (FlagId). The catalog itself lives in catalog.cpp
// and contains 600+ real HotSpot flag definitions (JDK 7/8 era, matching
// the paper). Registry instances are immutable after construction (apart
// from a lazily built, thread-safe fingerprint table) and shared by
// reference throughout the library.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "flags/flag_spec.hpp"

namespace jat {

/// Dense index of a flag inside a Registry; stable for the Registry's life.
using FlagId = std::uint32_t;
inline constexpr FlagId kInvalidFlag = UINT32_MAX;

class FlagRegistry {
 public:
  /// Builds a registry from explicit specs (tests use small hand-made ones).
  explicit FlagRegistry(std::vector<FlagSpec> specs);

  /// The full HotSpot catalog (600+ flags). Built once, shared.
  static const FlagRegistry& hotspot();

  std::size_t size() const { return specs_.size(); }
  const FlagSpec& spec(FlagId id) const { return specs_.at(id); }

  /// Name lookup; kInvalidFlag when absent.
  FlagId find(std::string_view name) const;

  /// Name lookup that throws FlagError when absent (for user-facing paths).
  FlagId require(std::string_view name) const;

  /// All flag ids in a subsystem.
  std::vector<FlagId> by_subsystem(Subsystem subsystem) const;

  /// Ids of flags with impact > 0 (flags the simulator actually reads).
  std::vector<FlagId> impactful() const;

  /// log10 of the cartesian search-space size over the given flags
  /// (product of per-flag domain cardinalities).
  double log10_space_size(const std::vector<FlagId>& ids) const;

  /// log10 of the full (flat) space over every flag.
  double log10_space_size_all() const;

  /// One flag's contribution to Configuration::fingerprint():
  /// mix64(id, fnv1a64(rendered value)), sizes rendered with their k/m/g
  /// suffix. Fingerprints are a persisted format (result logs, journals,
  /// stores, sandbox routing), so this formula must never change.
  std::uint64_t fingerprint_term(FlagId id, const FlagValue& value) const;

  /// fingerprint_term() of every flag's default value, indexed by id. Built
  /// on first use (thread-safe, never in the constructor) and immutable
  /// afterwards.
  const std::vector<std::uint64_t>& default_fingerprint_terms() const;

 private:
  std::vector<FlagSpec> specs_;
  std::unordered_map<std::string, FlagId> by_name_;
  mutable std::once_flag default_terms_once_;
  mutable std::vector<std::uint64_t> default_terms_;
};

}  // namespace jat
