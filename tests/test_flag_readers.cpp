// Pins the flag layer's per-evaluation readers bit for bit: decode_params,
// validate, FlagHierarchy::active_flags and render_command_line. The corpus
// is the simulator pin's plus tuner-shaped configurations: hierarchy-aware
// random ones at three densities, their mutations, structural switches and
// crossovers, and flat random ones with their mutations (the flat ones
// reach the fatal start checks). Each reader has its own hash, so a
// rewrite that moves one decoded bit, one violation, one active flag or
// one rendered byte fails by name. Never regenerate a literal to make a
// change pass: a new value means a reader's output changed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "flags/validate.hpp"
#include "jvmsim/params.hpp"
#include "pin_corpus.hpp"
#include "support/error.hpp"
#include "support/units.hpp"

namespace jat {
namespace {

class ReaderHash {
 public:
  void add(std::uint64_t word) { value_ = mix64(value_, word); }
  void add_int(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_bool(bool v) { add(v ? 1 : 0); }
  void add_time(SimTime t) { add_int(t.as_micros()); }
  void add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add_text(std::string_view text) {
    add(text.size());
    add(fnv1a64(text));
  }

  void add(const HeapParams& h) {
    add_int(h.initial_heap);
    add_int(h.max_heap);
    add_int(h.young_size);
    add_int(h.max_young_size);
    add_int(h.survivor_ratio);
    add_double(h.target_survivor_frac);
    add_int(h.max_tenuring);
    add_int(h.initial_tenuring);
    add_int(h.metaspace_trigger);
    add_int(h.max_metaspace);
    add_int(h.pretenure_threshold);
    add_bool(h.use_tlab);
    add_bool(h.resize_tlab);
    add_bool(h.compressed_oops);
    add_bool(h.large_pages);
    add_bool(h.pretouch);
    add_bool(h.numa);
    add_double(h.min_free_ratio);
    add_double(h.max_free_ratio);
    add_bool(h.adaptive_sizing);
  }

  void add(const GcParams& g) {
    add_int(static_cast<std::int64_t>(g.algorithm));
    add_bool(g.parallel_old);
    add_int(g.stw_threads);
    add_int(g.conc_threads);
    add_time(g.pause_goal);
    add_double(g.gc_time_ratio);
    add_bool(g.parallel_ref_proc);
    add_bool(g.scavenge_before_full);
    add_bool(g.overhead_limit);
    add_double(g.cms_initiating_frac);
    add_bool(g.cms_occupancy_only);
    add_bool(g.cms_parallel_remark);
    add_bool(g.cms_parallel_initial_mark);
    add_bool(g.cms_scavenge_before_remark);
    add_bool(g.cms_incremental);
    add_bool(g.cms_precleaning);
    add_int(g.g1_region_size);
    add_double(g.g1_new_min_frac);
    add_double(g.g1_new_max_frac);
    add_double(g.g1_ihop_frac);
    add_int(g.g1_mixed_count_target);
    add_double(g.g1_heap_waste_frac);
    add_double(g.g1_live_threshold_frac);
    add_double(g.g1_reserve_frac);
    add_int(g.g1_refinement_threads);
  }

  void add(const JitParams& j) {
    add_bool(j.interpret_only);
    add_bool(j.compile_all);
    add_bool(j.client_vm);
    add_bool(j.tiered);
    add_int(j.stop_at_level);
    add_int(j.compile_threshold);
    add_int(j.tier3_invocations);
    add_int(j.tier4_invocations);
    add_int(j.compiler_threads);
    add_bool(j.background);
    add_int(j.code_cache_capacity);
    add_bool(j.code_cache_flushing);
    add_bool(j.osr);
    add_double(j.c1_quality);
    add_double(j.c2_quality);
    add_double(j.vector_quality);
    add_double(j.crypto_speed);
    add_double(j.interpreter_quality);
    add_double(j.code_bloat);
    add_double(j.alloc_elision);
    add_double(j.lock_elision);
  }

  void add(const RuntimeParams& r) {
    add_bool(r.biased_locking);
    add_time(r.biased_delay);
    add_int(r.pre_block_spin);
    add_time(r.safepoint_interval);
    add_bool(r.counted_loop_safepoints);
    add_bool(r.verify_remote);
    add_bool(r.verify_local);
    add_bool(r.cds);
  }

  void add(const JvmParams& p) {
    add(p.heap);
    add(p.gc);
    add(p.jit);
    add(p.runtime);
  }

  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// The pin corpus's configurations, then tuner-shaped ones from a seeded
/// search space.
std::vector<Configuration> reader_corpus() {
  std::vector<Configuration> configs;
  for (auto& [program, pinned] : pin_corpus()) {
    for (Configuration& config : pinned) configs.push_back(std::move(config));
  }
  constexpr double kDensities[] = {0.05, 0.15, 0.3};
  const SearchSpace space(FlagHierarchy::hotspot());
  Rng rng(0x72656164657273ULL);  // "readers"
  for (int i = 0; i < 300; ++i) {
    const double density = kDensities[i % 3];
    const Configuration tuned = space.random_config(rng, density);
    configs.push_back(tuned);
    Configuration mutated = tuned;
    space.mutate(mutated, rng, 1 + i % 4, i % 2 == 0 ? 1.0 : 2.0);
    configs.push_back(mutated);
    space.mutate_structure(mutated, rng);
    configs.push_back(mutated);
    configs.push_back(space.crossover(tuned, mutated, rng));
    Configuration flat = space.random_config_flat(rng, density);
    configs.push_back(flat);
    space.mutate_flat(flat, rng, 3);
    configs.push_back(std::move(flat));
  }
  return configs;
}

TEST(FlagReaderPin, EveryReaderOutputIsBitIdentical) {
  const std::vector<Configuration> corpus = reader_corpus();
  ASSERT_EQ(corpus.size(), 29u * (kConfigsPerProgram + 1) + 300u * 6);

  const FlagHierarchy& hierarchy = FlagHierarchy::hotspot();
  ReaderHash decoded, violations, active, rendered;
  int fatal = 0, warned = 0;
  std::set<std::size_t> active_sizes;
  for (const Configuration& config : corpus) {
    decoded.add(decode_params(config));

    const std::vector<Violation> found = validate(config);
    violations.add(found.size());
    for (const Violation& v : found) {
      violations.add_text(v.flag);
      violations.add_text(v.message);
      violations.add_int(static_cast<std::int64_t>(v.severity));
      fatal += v.severity == Severity::kFatal;
      warned += v.severity == Severity::kWarning;
    }
    violations.add_text(first_fatal(config));

    const std::vector<FlagId> ids = hierarchy.active_flags(config);
    active_sizes.insert(ids.size());
    active.add(ids.size());
    for (const FlagId id : ids) active.add(id);

    rendered.add_text(config.render_command_line());
  }

  // The corpus reaches what the pins are there to guard.
  EXPECT_GT(fatal, 100);
  EXPECT_GT(warned, 100);
  EXPECT_GE(active_sizes.size(), 6u);
  EXPECT_EQ(decoded.value(), 0x840376160e850274ULL) << std::hex << decoded.value();
  EXPECT_EQ(violations.value(), 0xdb81d2da37b71da2ULL) << std::hex << violations.value();
  EXPECT_EQ(active.value(), 0x8213915f0f3883adULL) << std::hex << active.value();
  EXPECT_EQ(rendered.value(), 0xb0f9e7e11283433dULL) << std::hex << rendered.value();
}

/// The hotspot catalog without the named flags.
std::vector<FlagSpec> catalog_without(std::initializer_list<std::string_view> missing) {
  const FlagRegistry& full = FlagRegistry::hotspot();
  std::vector<FlagSpec> specs;
  for (FlagId id = 0; id < full.size(); ++id) {
    const FlagSpec& spec = full.spec(id);
    if (std::find(missing.begin(), missing.end(), spec.name) == missing.end()) {
      specs.push_back(spec);
    }
  }
  return specs;
}

std::string decode_error(const FlagRegistry& registry) {
  try {
    (void)decode_params(Configuration(registry));
  } catch (const FlagError& e) {
    return e.what();
  }
  return "";
}

// Decode reads every flag it needs, in a fixed order: a registry that
// lacks some fails on the first one that order reaches, conditional reads
// included (EliminateAllocations is read only under DoEscapeAnalysis).
TEST(FlagReaderPin, DecodeNamesTheFirstFlagASmallRegistryLacks) {
  EXPECT_EQ(decode_error(FlagRegistry(catalog_without({}))), "");
  EXPECT_EQ(decode_error(FlagRegistry(catalog_without({"MaxHeapSize"}))),
            "unknown flag: MaxHeapSize");
  EXPECT_EQ(decode_error(FlagRegistry(
                catalog_without({"UseCRC32Intrinsics", "UseSuperWord"}))),
            "unknown flag: UseSuperWord");
  EXPECT_EQ(decode_error(FlagRegistry(catalog_without({"EliminateAllocations"}))),
            "unknown flag: EliminateAllocations");
  EXPECT_EQ(decode_error(FlagRegistry(
                catalog_without({"UseSharedSpaces", "InitialHeapSize"}))),
            "unknown flag: InitialHeapSize");
}

FlagSpec bool_flag(const char* name, bool value) {
  FlagSpec spec;
  spec.name = name;
  spec.type = FlagType::kBool;
  spec.default_value = FlagValue(value);
  return spec;
}

FlagSpec size_flag(const char* name, std::int64_t value) {
  FlagSpec spec;
  spec.name = name;
  spec.type = FlagType::kSize;
  spec.default_value = FlagValue(value);
  spec.int_domain = {0, 64 * kGiB, true, 1};
  return spec;
}

// The start check reads only the flags a registry has: a check whose
// flags are absent is skipped, an absent bound takes its fallback.
TEST(FlagReaderPin, ValidateSkipsFlagsASmallRegistryLacks) {
  const FlagRegistry small({bool_flag("UseSerialGC", true),
                            bool_flag("UseParallelGC", true),
                            size_flag("InitialHeapSize", 2 * kGiB),
                            size_flag("NewSize", 3 * kGiB),
                            size_flag("G1HeapRegionSize", 3 * kMiB),
                            size_flag("G1NewSizePercent", 90)});
  const Configuration config(small);
  const std::vector<Violation> found = validate(config);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].flag, "UseSerialGC");
  EXPECT_EQ(found[0].severity, Severity::kFatal);
  EXPECT_EQ(found[1].flag, "G1HeapRegionSize");
  EXPECT_EQ(found[1].message, "G1HeapRegionSize must be a power of two");
  EXPECT_EQ(first_fatal(config), found[0].message);

  const FlagRegistry none({bool_flag("Unrelated", false)});
  const std::vector<Violation> only_warning = validate(Configuration(none));
  ASSERT_EQ(only_warning.size(), 1u);
  EXPECT_EQ(only_warning[0].flag, "UseParallelGC");
  EXPECT_EQ(only_warning[0].severity, Severity::kWarning);
}

}  // namespace
}  // namespace jat
