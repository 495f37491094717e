#include "tuner/search_space.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "flags/reader.hpp"
#include "support/error.hpp"

namespace jat {

namespace {

/// Every flag repair reads or sets, resolved to ids once per registry.
constexpr std::string_view kRepairedFlags[] = {
    "InitialHeapSize", "MaxHeapSize", "NewSize", "MinHeapFreeRatio",
    "MaxHeapFreeRatio", "InitialTenuringThreshold", "MaxTenuringThreshold",
    "InitialCodeCacheSize", "ReservedCodeCacheSize", "G1HeapRegionSize",
    "G1NewSizePercent", "G1MaxNewSizePercent", "CMSPrecleanNumerator",
    "CMSPrecleanDenominator",
};
using RepairReader = FlagReader<kRepairedFlags>;

std::int64_t quantize(std::int64_t value, const IntDomain& domain) {
  const std::int64_t step = std::max<std::int64_t>(1, domain.step);
  std::int64_t snapped = domain.lo + (value - domain.lo) / step * step;
  return std::clamp(snapped, domain.lo, domain.hi);
}

std::int64_t random_int(const IntDomain& domain, Rng& rng) {
  if (domain.log_scale && domain.hi > 0) {
    // Log-uniform over the positive part; a domain that includes zero keeps
    // a small probability of picking the "disabled/auto" value.
    const std::int64_t lo = std::max<std::int64_t>(domain.lo, 1);
    if (domain.lo <= 0 && rng.chance(0.10)) return domain.lo;
    const double log_lo = std::log(static_cast<double>(lo));
    const double log_hi = std::log(static_cast<double>(domain.hi));
    const double value = std::exp(rng.uniform(log_lo, log_hi));
    return quantize(static_cast<std::int64_t>(value), domain);
  }
  return quantize(rng.uniform_i64(domain.lo, domain.hi), domain);
}

std::int64_t neighbor_int(const IntDomain& domain, std::int64_t current,
                          double scale, Rng& rng) {
  if (domain.log_scale) {
    const std::int64_t base = std::max<std::int64_t>(
        current, std::max<std::int64_t>(domain.lo, 1));
    const double factor = std::exp(rng.normal(0.0, 0.45 * scale));
    return quantize(static_cast<std::int64_t>(static_cast<double>(base) * factor),
                    domain);
  }
  const double range = static_cast<double>(domain.hi - domain.lo);
  const double step = rng.normal(0.0, std::max(1.0, range * 0.08 * scale));
  return quantize(current + static_cast<std::int64_t>(std::lround(step)), domain);
}

}  // namespace

SearchSpace::SearchSpace(const FlagHierarchy& hierarchy) : hierarchy_(&hierarchy) {}

FlagValue SearchSpace::random_value(const FlagSpec& spec, Rng& rng) const {
  switch (spec.type) {
    case FlagType::kBool:
      return FlagValue(rng.chance(0.5));
    case FlagType::kInt:
    case FlagType::kSize:
      return FlagValue(random_int(spec.int_domain, rng));
    case FlagType::kDouble:
      return FlagValue(rng.uniform(spec.double_domain.lo, spec.double_domain.hi));
    case FlagType::kEnum:
      return FlagValue(spec.choices[rng.next_below(spec.choices.size())]);
  }
  throw FlagError("random_value: unknown flag type");
}

FlagValue SearchSpace::neighbor_value(const FlagSpec& spec,
                                      const FlagValue& current, Rng& rng,
                                      double scale) const {
  switch (spec.type) {
    case FlagType::kBool:
      return FlagValue(!current.as_bool());
    case FlagType::kInt:
    case FlagType::kSize:
      return FlagValue(neighbor_int(spec.int_domain, current.as_int(), scale, rng));
    case FlagType::kDouble: {
      const double range = spec.double_domain.hi - spec.double_domain.lo;
      const double value =
          current.as_double() + rng.normal(0.0, range * 0.1 * scale);
      return FlagValue(std::clamp(value, spec.double_domain.lo, spec.double_domain.hi));
    }
    case FlagType::kEnum: {
      if (spec.choices.size() < 2) return current;
      std::size_t pick = rng.next_below(spec.choices.size() - 1);
      const auto it =
          std::find(spec.choices.begin(), spec.choices.end(), current.as_string());
      const std::size_t current_index =
          static_cast<std::size_t>(it - spec.choices.begin());
      if (pick >= current_index) ++pick;
      return FlagValue(spec.choices[pick]);
    }
  }
  throw FlagError("neighbor_value: unknown flag type");
}

Configuration SearchSpace::random_config(Rng& rng, double density) const {
  Configuration config(registry());
  for (const StructuralGroup& group : hierarchy_->groups()) {
    group.apply(config, rng.next_below(group.options.size()));
  }
  for (FlagId id : hierarchy_->active_flags(config)) {
    if (!rng.chance(density)) continue;
    config.set(id, random_value(registry().spec(id), rng));
  }
  repair(config);
  return config;
}

void SearchSpace::mutate(Configuration& config, Rng& rng, int flag_count,
                         double scale) const {
  const std::vector<FlagId> active = hierarchy_->active_flags(config);
  if (active.empty()) return;
  for (int i = 0; i < flag_count; ++i) {
    const FlagId id = active[rng.next_below(active.size())];
    const FlagSpec& spec = registry().spec(id);
    config.set(id, neighbor_value(spec, config.get(id), rng, scale));
  }
  repair(config);
}

void SearchSpace::repair(Configuration& config) const {
  const RepairReader read(config);
  auto get = [&](RepairReader::Name name) { return read.get_int(name); };
  auto clamp_set = [&](RepairReader::Name name, std::int64_t value) {
    const FlagId id = read.id(name);
    const IntDomain& domain = registry().spec(id).int_domain;
    config.set(id, FlagValue(std::clamp(value, domain.lo, domain.hi)));
  };

  // Heap bound inversions.
  if (get("InitialHeapSize") > get("MaxHeapSize")) {
    clamp_set("InitialHeapSize", get("MaxHeapSize"));
  }
  if (get("NewSize") > get("MaxHeapSize")) {
    clamp_set("NewSize", get("MaxHeapSize") / 2);
  }
  if (get("MinHeapFreeRatio") > get("MaxHeapFreeRatio")) {
    clamp_set("MinHeapFreeRatio", get("MaxHeapFreeRatio"));
  }
  if (get("InitialTenuringThreshold") > get("MaxTenuringThreshold")) {
    clamp_set("InitialTenuringThreshold", get("MaxTenuringThreshold"));
  }
  if (get("InitialCodeCacheSize") > get("ReservedCodeCacheSize")) {
    clamp_set("InitialCodeCacheSize", get("ReservedCodeCacheSize"));
  }
  // G1 regions must be powers of two.
  const std::int64_t region = get("G1HeapRegionSize");
  if (region > 0 && (region & (region - 1)) != 0) {
    std::int64_t pow2 = 1;
    while (pow2 * 2 <= region) pow2 *= 2;
    clamp_set("G1HeapRegionSize", pow2);
  }
  if (get("G1NewSizePercent") > get("G1MaxNewSizePercent")) {
    clamp_set("G1NewSizePercent", get("G1MaxNewSizePercent"));
  }
  if (get("CMSPrecleanNumerator") >= get("CMSPrecleanDenominator")) {
    clamp_set("CMSPrecleanNumerator", get("CMSPrecleanDenominator") - 1);
  }
}

void SearchSpace::mutate_structure(Configuration& config, Rng& rng) const {
  const auto& groups = hierarchy_->groups();
  if (groups.empty()) return;
  const StructuralGroup& group = groups[rng.next_below(groups.size())];
  const int current = group.current_option(config);
  std::size_t pick = rng.next_below(group.options.size() - 1);
  if (current >= 0 && pick >= static_cast<std::size_t>(current)) ++pick;
  group.apply(config, std::min(pick, group.options.size() - 1));
  repair(config);
}

Configuration SearchSpace::crossover(const Configuration& a,
                                     const Configuration& b, Rng& rng) const {
  Configuration child(registry());
  for (const StructuralGroup& group : hierarchy_->groups()) {
    const Configuration& parent = rng.chance(0.5) ? a : b;
    const int option = group.current_option(parent);
    if (option >= 0) group.apply(child, static_cast<std::size_t>(option));
  }
  for (FlagId id : hierarchy_->active_flags(child)) {
    const Configuration& parent = rng.chance(0.5) ? a : b;
    const FlagValue& value = parent.get(id);
    if (registry().spec(id).in_domain(value)) child.set(id, value);
  }
  repair(child);
  return child;
}

Configuration SearchSpace::random_config_flat(Rng& rng, double density) const {
  Configuration config(registry());
  for (FlagId id = 0; id < registry().size(); ++id) {
    if (!rng.chance(density)) continue;
    config.set(id, random_value(registry().spec(id), rng));
  }
  return config;
}

void SearchSpace::mutate_flat(Configuration& config, Rng& rng, int flag_count,
                              double scale) const {
  const std::size_t total = registry().size();
  for (int i = 0; i < flag_count; ++i) {
    const FlagId id = static_cast<FlagId>(rng.next_below(total));
    const FlagSpec& spec = registry().spec(id);
    config.set(id, neighbor_value(spec, config.get(id), rng, scale));
  }
}

}  // namespace jat
