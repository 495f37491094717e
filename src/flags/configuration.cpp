#include "flags/configuration.hpp"

#include <bit>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace jat {

namespace {

/// True when `value` is bit-for-bit the registry default, so it renders —
/// and hashes — exactly as the default does. Plain == is not enough:
/// 0.0 == -0.0, yet they render as "0" and "-0".
bool same_bits(const FlagValue& value, const FlagValue& default_value) {
  if (value.is_double() && default_value.is_double()) {
    return std::bit_cast<std::uint64_t>(value.as_double()) ==
           std::bit_cast<std::uint64_t>(default_value.as_double());
  }
  return value == default_value;
}

}  // namespace

Configuration::Configuration(const FlagRegistry& registry) : registry_(&registry) {
  values_.reserve(registry.size());
  for (FlagId id = 0; id < registry.size(); ++id) {
    values_.push_back(registry.spec(id).default_value);
  }
}

const FlagValue& Configuration::get(FlagId id) const { return values_.at(id); }

const FlagValue& Configuration::get(std::string_view name) const {
  return get(registry_->require(name));
}

bool Configuration::get_bool(std::string_view name) const {
  return get(name).as_bool();
}

std::int64_t Configuration::get_int(std::string_view name) const {
  return get(name).as_int();
}

double Configuration::get_double(std::string_view name) const {
  return get(name).as_double();
}

const std::string& Configuration::get_enum(std::string_view name) const {
  return get(name).as_string();
}

void Configuration::set(FlagId id, FlagValue value) {
  const FlagSpec& spec = registry_->spec(id);
  if (!spec.in_domain(value)) {
    throw FlagError("Configuration::set: value " + value.render() +
                    " out of domain for " + spec.name);
  }
  values_[id] = std::move(value);
}

void Configuration::set(std::string_view name, FlagValue value) {
  set(registry_->require(name), std::move(value));
}

void Configuration::set_bool(std::string_view name, bool value) {
  set(name, FlagValue(value));
}

void Configuration::set_int(std::string_view name, std::int64_t value) {
  set(name, FlagValue(value));
}

void Configuration::set_double(std::string_view name, double value) {
  set(name, FlagValue(value));
}

void Configuration::set_enum(std::string_view name, std::string value) {
  set(name, FlagValue(std::move(value)));
}

bool Configuration::is_default(FlagId id) const {
  return values_[id] == registry_->spec(id).default_value;
}

std::vector<FlagId> Configuration::changed_flags() const {
  std::vector<FlagId> out;
  for (FlagId id = 0; id < values_.size(); ++id) {
    if (!is_default(id)) out.push_back(id);
  }
  return out;
}

std::string Configuration::render_flag(FlagId id) const {
  const FlagSpec& spec = registry_->spec(id);
  const FlagValue& value = values_[id];
  if (spec.type == FlagType::kBool) {
    return std::string("-XX:") + (value.as_bool() ? "+" : "-") + spec.name;
  }
  return "-XX:" + spec.name + "=" + value.render(spec.type == FlagType::kSize);
}

std::string Configuration::render_command_line() const {
  std::string out;
  for (FlagId id : changed_flags()) {
    if (!out.empty()) out += ' ';
    out += render_flag(id);
  }
  return out;
}

std::uint64_t Configuration::fingerprint() const {
  // Flags at their default take the registry's precomputed term; only the
  // changed ones are rendered. The chain runs over the same terms in the
  // same id order, so the value equals hashing every rendered flag.
  const std::vector<std::uint64_t>& default_terms =
      registry_->default_fingerprint_terms();
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (FlagId id = 0; id < values_.size(); ++id) {
    const FlagValue& value = values_[id];
    h = mix64(h, same_bits(value, registry_->spec(id).default_value)
                     ? default_terms[id]
                     : registry_->fingerprint_term(id, value));
  }
  return h;
}

}  // namespace jat
