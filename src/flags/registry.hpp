// The flag registry: the full catalog of tunable HotSpot flags.
//
// Mirrors `java -XX:+PrintFlagsFinal`: one FlagSpec per flag, looked up by
// name or by dense index (FlagId). The catalog itself lives in catalog.cpp
// and contains 600+ real HotSpot flag definitions (JDK 7/8 era, matching
// the paper). Registry instances are immutable after construction (apart
// from lazily built, thread-safe tables: the default fingerprint terms and
// the readers' resolved name lists) and shared by reference throughout the
// library.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "flags/flag_spec.hpp"

namespace jat {

/// Dense index of a flag inside a Registry; stable for the Registry's life.
using FlagId = std::uint32_t;
inline constexpr FlagId kInvalidFlag = UINT32_MAX;

/// A fixed list of flag names that one reader reads on every evaluation
/// (see flags/reader.hpp). Each list owns a slot in every registry's table
/// of resolved lists, so FlagRegistry::resolve() looks its names up once
/// per registry. Construct each list once, with static storage.
class FlagNameList {
 public:
  static constexpr std::size_t kMaxLists = 16;

  explicit FlagNameList(std::span<const std::string_view> names);
  FlagNameList(const FlagNameList&) = delete;
  FlagNameList& operator=(const FlagNameList&) = delete;

  std::span<const std::string_view> names() const { return names_; }
  std::size_t slot() const { return slot_; }

 private:
  std::span<const std::string_view> names_;
  std::size_t slot_;
};

class FlagRegistry {
 public:
  /// Builds a registry from explicit specs (tests use small hand-made ones).
  explicit FlagRegistry(std::vector<FlagSpec> specs);

  /// The full HotSpot catalog (600+ flags). Built once, shared.
  static const FlagRegistry& hotspot();

  std::size_t size() const { return specs_.size(); }
  const FlagSpec& spec(FlagId id) const { return specs_.at(id); }

  /// Every flag's default value, indexed by id.
  const std::vector<FlagValue>& defaults() const { return defaults_; }

  /// Name lookup; kInvalidFlag when absent. Builds no std::string.
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

  /// `list`'s ids in this registry, name by name, kInvalidFlag for a name
  /// the registry lacks. Resolved on the list's first use (thread-safe,
  /// never in the constructor) and immutable afterwards.
  const std::vector<FlagId>& resolve(const FlagNameList& list) const;

  /// Builds the lazy tables now: the default fingerprint terms and the ids
  /// of every name list constructed so far (or waits for the thread
  /// building one). The sandbox calls it before each fork, so that no
  /// worker inherits a half-built table and then blocks on it forever.
  void build_lazy_tables() const;

 private:
  struct ResolvedList {
    std::once_flag once;
    std::vector<FlagId> ids;
  };

  std::vector<FlagSpec> specs_;
  std::vector<FlagValue> defaults_;
  /// Keyed by views of the names in specs_, which never changes after
  /// construction (and a registry never moves).
  std::unordered_map<std::string_view, FlagId> by_name_;
  mutable std::once_flag default_terms_once_;
  mutable std::vector<std::uint64_t> default_terms_;
  mutable std::array<ResolvedList, FlagNameList::kMaxLists> resolved_;
};

}  // namespace jat
