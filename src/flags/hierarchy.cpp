#include "flags/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "support/error.hpp"

namespace jat {

int StructuralGroup::current_option(const Configuration& config) const {
  for (std::size_t i = 0; i < options.size(); ++i) {
    bool all_hold = true;
    for (const auto& [id, value] : options[i].assignments) {
      if (!(config.get(id) == value)) {
        all_hold = false;
        break;
      }
    }
    if (all_hold) return static_cast<int>(i);
  }
  return -1;
}

void StructuralGroup::apply(Configuration& config, std::size_t index) const {
  const StructuralOption& option = options.at(index);
  for (const auto& [id, value] : option.assignments) config.set(id, value);
}

FlagHierarchy::FlagHierarchy(const FlagRegistry& registry, HierarchyNode root,
                             std::vector<StructuralGroup> groups)
    : registry_(&registry), root_(std::move(root)), groups_(std::move(groups)) {
  std::unordered_set<FlagId> structural;
  for (const auto& group : groups_) {
    if (group.options.size() < 2) {
      throw FlagError("FlagHierarchy: group " + group.name +
                      " needs at least two options");
    }
    for (const auto& option : group.options) {
      for (const auto& [id, value] : option.assignments) structural.insert(id);
    }
  }
  structural_flags_.assign(structural.begin(), structural.end());
  std::sort(structural_flags_.begin(), structural_flags_.end());
  verify_coverage();
}

void FlagHierarchy::verify_coverage() const {
  std::unordered_set<FlagId> seen(structural_flags_.begin(), structural_flags_.end());
  const std::size_t structural_count = seen.size();

  // Every node flag appears once and never overlaps the structural set.
  std::function<void(const HierarchyNode&)> walk = [&](const HierarchyNode& node) {
    for (FlagId id : node.flags) {
      if (id >= registry_->size()) {
        throw FlagError("FlagHierarchy: node " + node.name + " has bad flag id");
      }
      if (!seen.insert(id).second) {
        throw FlagError("FlagHierarchy: flag " + registry_->spec(id).name +
                        " appears twice (node " + node.name + ")");
      }
    }
    for (const auto& child : node.children) walk(child);
  };
  walk(root_);

  if (seen.size() != registry_->size()) {
    throw FlagError("FlagHierarchy: covers " + std::to_string(seen.size()) +
                    " of " + std::to_string(registry_->size()) + " flags");
  }
  (void)structural_count;
}

std::vector<FlagId> FlagHierarchy::active_flags(const Configuration& config) const {
  // Mark the active nodes' flags, then collect them in id order: the nodes
  // partition the flags, so this equals sorting their concatenation.
  std::vector<char> active(registry_->size(), 0);
  std::size_t count = 0;
  std::function<void(const HierarchyNode&)> walk = [&](const HierarchyNode& node) {
    if (node.gate && !node.gate(config)) return;
    for (FlagId id : node.flags) active[id] = 1;
    count += node.flags.size();
    for (const auto& child : node.children) walk(child);
  };
  walk(root_);
  std::vector<FlagId> out;
  out.reserve(count);
  for (FlagId id = 0; id < active.size(); ++id) {
    if (active[id]) out.push_back(id);
  }
  return out;
}

std::vector<std::string> FlagHierarchy::active_nodes(const Configuration& config) const {
  std::vector<std::string> out;
  std::function<void(const HierarchyNode&)> walk = [&](const HierarchyNode& node) {
    if (node.gate && !node.gate(config)) return;
    out.push_back(node.name);
    for (const auto& child : node.children) walk(child);
  };
  walk(root_);
  return out;
}

double FlagHierarchy::log10_active_space(const Configuration& config) const {
  return std::log10(static_cast<double>(structural_combinations())) +
         registry_->log10_space_size(active_flags(config));
}

std::size_t FlagHierarchy::structural_combinations() const {
  std::size_t combos = 1;
  for (const auto& group : groups_) combos *= group.options.size();
  return combos;
}

namespace {

/// Collects a subsystem's flag ids, minus an exclusion set.
std::vector<FlagId> subsystem_minus(const FlagRegistry& registry, Subsystem sub,
                                    const std::unordered_set<FlagId>& excluded) {
  std::vector<FlagId> out;
  for (FlagId id : registry.by_subsystem(sub)) {
    if (!excluded.contains(id)) out.push_back(id);
  }
  return out;
}

FlagHierarchy build_hotspot_hierarchy() {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  auto fid = [&](const char* name) { return reg.require(name); };

  // --- Structural groups ---------------------------------------------------
  const FlagId serial = fid("UseSerialGC");
  const FlagId parallel = fid("UseParallelGC");
  const FlagId cms = fid("UseConcMarkSweepGC");
  const FlagId parnew = fid("UseParNewGC");
  const FlagId g1 = fid("UseG1GC");
  const FlagId tiered = fid("TieredCompilation");
  const FlagId vm = fid("VMMode");
  const FlagId exec = fid("ExecutionMode");
  auto gc_option = [&](const char* name, FlagId chosen, bool with_parnew) {
    StructuralOption option;
    option.name = name;
    for (FlagId id : {serial, parallel, cms, g1}) {
      option.assignments.emplace_back(id, FlagValue(id == chosen));
    }
    option.assignments.emplace_back(parnew, FlagValue(with_parnew));
    return option;
  };
  StructuralGroup gc_group{
      "gc",
      {gc_option("serial", serial, false), gc_option("parallel", parallel, false),
       gc_option("cms", cms, true), gc_option("g1", g1, false)}};

  StructuralGroup jit_group{
      "jit",
      {StructuralOption{"tiered", {{tiered, FlagValue(true)}}},
       StructuralOption{"nontiered", {{tiered, FlagValue(false)}}}}};

  StructuralGroup vm_group{
      "vm",
      {StructuralOption{"server", {{vm, FlagValue(std::string("server"))}}},
       StructuralOption{"client", {{vm, FlagValue(std::string("client"))}}}}};

  StructuralGroup exec_group{
      "exec",
      {StructuralOption{"mixed", {{exec, FlagValue(std::string("mixed"))}}},
       StructuralOption{"int", {{exec, FlagValue(std::string("int"))}}},
       StructuralOption{"comp", {{exec, FlagValue(std::string("comp"))}}}}};

  std::unordered_set<FlagId> structural = {serial, parallel, cms,  parnew,
                                           g1,     tiered,   vm,   exec};

  // --- Gates (read only structural flags, so subtree activation is stable
  // while numeric flags inside the subtree are tuned; they capture ids, as
  // every ask evaluates them) -------------------------------------------------
  auto gate_flag = [](FlagId id) {
    return [id](const Configuration& c) { return c.get(id).as_bool(); };
  };
  auto gate_compiling = [exec](const Configuration& c) {
    return c.get(exec).as_string() != "int";
  };
  auto gate_c1 = [exec, tiered, vm](const Configuration& c) {
    return c.get(exec).as_string() != "int" &&
           (c.get(tiered).as_bool() || c.get(vm).as_string() == "client");
  };
  auto gate_c2 = [exec, vm](const Configuration& c) {
    return c.get(exec).as_string() != "int" && c.get(vm).as_string() == "server";
  };

  // --- Tree ------------------------------------------------------------------
  HierarchyNode root;
  root.name = "jvm";

  HierarchyNode memory{"memory", {}, subsystem_minus(reg, Subsystem::kMemory, structural), {}};

  HierarchyNode gc{"gc", {}, subsystem_minus(reg, Subsystem::kGcCommon, structural), {}};
  gc.children.push_back(
      {"gc.serial", gate_flag(serial),
       subsystem_minus(reg, Subsystem::kGcSerial, structural), {}});
  gc.children.push_back(
      {"gc.parallel", gate_flag(parallel),
       subsystem_minus(reg, Subsystem::kGcParallel, structural), {}});
  gc.children.push_back(
      {"gc.cms", gate_flag(cms),
       subsystem_minus(reg, Subsystem::kGcCms, structural), {}});
  gc.children.push_back(
      {"gc.g1", gate_flag(g1),
       subsystem_minus(reg, Subsystem::kGcG1, structural), {}});

  HierarchyNode compiler{"compiler", gate_compiling,
                         subsystem_minus(reg, Subsystem::kCompiler, structural), {}};
  compiler.children.push_back(
      {"compiler.c1", gate_c1, subsystem_minus(reg, Subsystem::kCompilerC1, structural), {}});
  compiler.children.push_back(
      {"compiler.c2", gate_c2, subsystem_minus(reg, Subsystem::kCompilerC2, structural), {}});

  HierarchyNode runtime{"runtime", {}, subsystem_minus(reg, Subsystem::kRuntime, structural), {}};
  HierarchyNode classload{"classload", {},
                          subsystem_minus(reg, Subsystem::kClassload, structural), {}};
  HierarchyNode diagnostic{"diagnostic", {},
                           subsystem_minus(reg, Subsystem::kDiagnostic, structural), {}};

  root.children = {std::move(memory),  std::move(gc),        std::move(compiler),
                   std::move(runtime), std::move(classload), std::move(diagnostic)};

  return FlagHierarchy(reg, std::move(root),
                       {std::move(gc_group), std::move(jit_group),
                        std::move(vm_group), std::move(exec_group)});
}

}  // namespace

const FlagHierarchy& FlagHierarchy::hotspot() {
  static const FlagHierarchy hierarchy = build_hotspot_hierarchy();
  return hierarchy;
}

}  // namespace jat
