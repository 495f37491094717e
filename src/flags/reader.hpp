// Reading a fixed set of flags by id.
//
// The readers that run on every evaluation (decode_params, the start check
// in validate.cpp, SearchSpace::repair) each read a fixed list of flags.
// A by-name read hashes the name every time; FlagReader resolves its list
// once per registry (FlagRegistry::resolve) and then reads by index. The
// names stay at the call site and are checked against the list at compile
// time:
//
//   constexpr std::string_view kNames[] = {"MaxHeapSize", "UseTLAB"};
//   const FlagReader<kNames> read(config);
//   read.get_int("MaxHeapSize");  // a name missing from kNames won't compile
//
// A registry that lacks a listed flag (a small hand-made test registry)
// behaves as it does for by-name reads: has() is false, and a read throws
// the same FlagError ("unknown flag: <name>").
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "flags/configuration.hpp"

namespace jat {

template <const auto& kNames>
class FlagReader {
 public:
  /// One of kNames, turned into its index at compile time.
  class Name {
   public:
    consteval Name(const char* name) : index_(index_of(name)) {}
    std::size_t index() const { return index_; }

   private:
    static consteval std::size_t index_of(std::string_view name) {
      for (std::size_t i = 0; i < std::size(kNames); ++i) {
        if (kNames[i] == name) return i;
      }
      throw "FlagReader: name missing from the reader's list";
    }
    std::size_t index_;
  };

  explicit FlagReader(const Configuration& config)
      : config_(&config), ids_(config.registry().resolve(list()).data()) {}

  bool has(Name name) const { return ids_[name.index()] != kInvalidFlag; }

  /// The flag's id; throws FlagError when the registry lacks it.
  FlagId id(Name name) const {
    const FlagId id = ids_[name.index()];
    // An absent flag fails as a by-name read of it does.
    return id != kInvalidFlag ? id
                              : config_->registry().require(kNames[name.index()]);
  }

  const FlagValue& get(Name name) const { return config_->get(id(name)); }
  bool get_bool(Name name) const { return get(name).as_bool(); }
  std::int64_t get_int(Name name) const { return get(name).as_int(); }
  const std::string& get_enum(Name name) const { return get(name).as_string(); }

 private:
  static const FlagNameList& list() {
    static const FlagNameList names(kNames);
    return names;
  }

  const Configuration* config_;
  const FlagId* ids_;
};

}  // namespace jat
