#include "flags/registry.hpp"

#include <atomic>
#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace jat {

namespace {

/// Every constructed name list, by slot (null until its list exists).
std::array<std::atomic<const FlagNameList*>, FlagNameList::kMaxLists> g_lists{};
std::atomic<std::size_t> g_next_slot{0};

std::size_t claim_name_list_slot() {
  const std::size_t slot = g_next_slot.fetch_add(1);
  if (slot >= FlagNameList::kMaxLists) {
    throw FlagError("FlagNameList: more than " +
                    std::to_string(FlagNameList::kMaxLists) + " lists");
  }
  return slot;
}

}  // namespace

FlagNameList::FlagNameList(std::span<const std::string_view> names)
    : names_(names), slot_(claim_name_list_slot()) {
  g_lists[slot_].store(this, std::memory_order_release);
}

FlagRegistry::FlagRegistry(std::vector<FlagSpec> specs) : specs_(std::move(specs)) {
  defaults_.reserve(specs_.size());
  by_name_.reserve(specs_.size());
  for (FlagId id = 0; id < specs_.size(); ++id) {
    const auto& spec = specs_[id];
    if (spec.name.empty()) throw FlagError("FlagRegistry: unnamed flag");
    if (!spec.in_domain(spec.default_value)) {
      throw FlagError("FlagRegistry: default out of domain for " + spec.name);
    }
    const auto [it, inserted] = by_name_.emplace(spec.name, id);
    if (!inserted) throw FlagError("FlagRegistry: duplicate flag " + spec.name);
    defaults_.push_back(spec.default_value);
  }
}

FlagId FlagRegistry::find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidFlag : it->second;
}

FlagId FlagRegistry::require(std::string_view name) const {
  const FlagId id = find(name);
  if (id == kInvalidFlag) {
    throw FlagError("unknown flag: " + std::string(name));
  }
  return id;
}

std::vector<FlagId> FlagRegistry::by_subsystem(Subsystem subsystem) const {
  std::vector<FlagId> out;
  for (FlagId id = 0; id < specs_.size(); ++id) {
    if (specs_[id].subsystem == subsystem) out.push_back(id);
  }
  return out;
}

std::vector<FlagId> FlagRegistry::impactful() const {
  std::vector<FlagId> out;
  for (FlagId id = 0; id < specs_.size(); ++id) {
    if (specs_[id].impact > 0.0) out.push_back(id);
  }
  return out;
}

double FlagRegistry::log10_space_size(const std::vector<FlagId>& ids) const {
  double log_product = 0.0;
  for (FlagId id : ids) log_product += std::log10(spec(id).domain_cardinality());
  return log_product;
}

double FlagRegistry::log10_space_size_all() const {
  double log_product = 0.0;
  for (const auto& spec : specs_) log_product += std::log10(spec.domain_cardinality());
  return log_product;
}

std::uint64_t FlagRegistry::fingerprint_term(FlagId id,
                                             const FlagValue& value) const {
  return mix64(id, fnv1a64(value.render(spec(id).type == FlagType::kSize)));
}

const std::vector<std::uint64_t>& FlagRegistry::default_fingerprint_terms()
    const {
  std::call_once(default_terms_once_, [this] {
    default_terms_.reserve(specs_.size());
    for (FlagId id = 0; id < specs_.size(); ++id) {
      default_terms_.push_back(fingerprint_term(id, specs_[id].default_value));
    }
  });
  return default_terms_;
}

const std::vector<FlagId>& FlagRegistry::resolve(const FlagNameList& list) const {
  ResolvedList& resolved = resolved_[list.slot()];
  std::call_once(resolved.once, [&] {
    resolved.ids.reserve(list.names().size());
    for (const std::string_view name : list.names()) {
      resolved.ids.push_back(find(name));
    }
  });
  return resolved.ids;
}

void FlagRegistry::build_lazy_tables() const {
  (void)default_fingerprint_terms();
  for (const auto& slot : g_lists) {
    if (const FlagNameList* list = slot.load(std::memory_order_acquire)) {
      (void)resolve(*list);
    }
  }
}

}  // namespace jat
