// Property-based round-trip sweep over the flag layer: for ANY valid
// configuration, rendering to HotSpot syntax and parsing back must
// reproduce the configuration bit for bit, the fingerprint must not
// depend on the order flags are applied, and it must equal the
// render-every-flag reference below. 10k seeded random configurations
// run in ctest; every failure message carries the case seed, so a red run
// is reproducible with
//   JAT_FLAGS_SEED=<seed> ctest -R FlagsProperty
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "flags/configuration.hpp"
#include "flags/parse.hpp"
#include "flags/registry.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace jat {
namespace {

std::uint64_t base_seed() {
  if (const char* env = std::getenv("JAT_FLAGS_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0x6a61745f666c6167ULL;  // "jat_flag"
}

/// Uniform double in [0, 1) from the top 53 bits of one draw.
double next_unit(Rng& rng) {
  return static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
}

/// A uniformly random in-domain value for one flag. Integer domains
/// respect the step quantisation; doubles cover the closed range endpoints
/// often enough to exercise boundary rendering.
FlagValue random_value(const FlagSpec& spec, Rng& rng) {
  switch (spec.type) {
    case FlagType::kBool:
      return FlagValue(rng.next_below(2) == 1);
    case FlagType::kInt:
    case FlagType::kSize: {
      const IntDomain& d = spec.int_domain;
      const std::int64_t step = d.step > 0 ? d.step : 1;
      const std::uint64_t steps =
          static_cast<std::uint64_t>((d.hi - d.lo) / step) + 1;
      return FlagValue(d.lo +
                       static_cast<std::int64_t>(rng.next_below(steps)) * step);
    }
    case FlagType::kDouble: {
      const DoubleDomain& d = spec.double_domain;
      // 1-in-8: pin to an endpoint; otherwise uniform in the range.
      switch (rng.next_below(8)) {
        case 0: return FlagValue(d.lo);
        case 1: return FlagValue(d.hi);
        default: return FlagValue(d.lo + (d.hi - d.lo) * next_unit(rng));
      }
    }
    case FlagType::kEnum:
      return FlagValue(spec.choices[rng.next_below(spec.choices.size())]);
  }
  return FlagValue(false);
}

/// Random valid configuration: registry defaults with 1..12 flags moved to
/// random in-domain values (the tuner's own output shape — a handful of
/// non-default flags over a 600-flag catalog).
Configuration random_config(const FlagRegistry& registry, Rng& rng) {
  Configuration config(registry);
  const std::size_t changes = rng.next_below(12) + 1;
  for (std::size_t i = 0; i < changes; ++i) {
    const FlagId id = static_cast<FlagId>(rng.next_below(registry.size()));
    config.set(id, random_value(registry.spec(id), rng));
  }
  return config;
}

/// The fingerprint as defined: every flag's value rendered and hashed, the
/// terms chained in id order. Configuration::fingerprint() takes a
/// precomputed term for flags at their default; it must equal this bit for
/// bit, because fingerprints are persisted (result logs, journals, stores).
std::uint64_t reference_fingerprint(const Configuration& config) {
  const FlagRegistry& registry = config.registry();
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (FlagId id = 0; id < config.size(); ++id) {
    const bool as_size = registry.spec(id).type == FlagType::kSize;
    h = mix64(h, mix64(id, fnv1a64(config.get(id).render(as_size))));
  }
  return h;
}

class FlagsProperty : public ::testing::Test {
 protected:
  const FlagRegistry& reg_ = FlagRegistry::hotspot();
};

// The core property, 10k cases: parse(render(cfg)) == cfg bit for bit —
// values, fingerprint, and a second render all agree. This is what lets
// tuned configurations survive files, shells, journals, and the store.
TEST_F(FlagsProperty, RenderParseRoundTripsTenThousandRandomConfigs) {
  constexpr int kCases = 10000;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed = mix64(base_seed(), static_cast<std::uint64_t>(i));
    Rng rng(seed);
    const Configuration config = random_config(reg_, rng);
    const std::string rendered = config.render_command_line();
    const Configuration reparsed = parse_command_line(reg_, rendered);
    ASSERT_TRUE(reparsed == config)
        << "round-trip case " << i << " diverged; replay with seed 0x"
        << std::hex << seed << std::dec << "\n  rendered: " << rendered;
    ASSERT_EQ(reparsed.fingerprint(), config.fingerprint())
        << "fingerprint moved under round-trip; seed 0x" << std::hex << seed;
    ASSERT_EQ(config.fingerprint(), reference_fingerprint(config))
        << "fingerprint differs from the reference; seed 0x" << std::hex
        << seed;
    ASSERT_EQ(reparsed.render_command_line(), rendered)
        << "second render differs; seed 0x" << std::hex << seed;
  }
}

// Configuration::fingerprint() is documented order-independent: applying
// the same assignments in any order must land on the same fingerprint and
// the same configuration. (Each canonical -XX token touches exactly one
// flag, so token order is semantically irrelevant; this pins that the
// fingerprint implementation agrees.)
TEST_F(FlagsProperty, FingerprintInvariantUnderFlagReordering) {
  constexpr int kCases = 2000;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        mix64(base_seed() ^ 0x72656f7264657221ULL, static_cast<std::uint64_t>(i));
    Rng rng(seed);
    const Configuration config = random_config(reg_, rng);
    std::vector<std::string> tokens =
        tokenize_command_line(config.render_command_line());

    // Fisher-Yates with the case rng: a deterministic shuffle.
    for (std::size_t j = tokens.size(); j > 1; --j) {
      std::swap(tokens[j - 1], tokens[rng.next_below(j)]);
    }
    Configuration shuffled(reg_);
    for (const std::string& token : tokens) apply_option(shuffled, token);

    ASSERT_TRUE(shuffled == config)
        << "reorder case " << i << " diverged; replay with seed 0x"
        << std::hex << seed;
    ASSERT_EQ(shuffled.fingerprint(), config.fingerprint())
        << "fingerprint depends on application order; seed 0x" << std::hex
        << seed;
  }
}

// Sanity bound on the property itself: the fingerprint must MOVE when a
// value changes — otherwise the round-trip fingerprint checks above are
// vacuous.
TEST_F(FlagsProperty, FingerprintSeparatesDistinctConfigurations) {
  constexpr int kCases = 500;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        mix64(base_seed() ^ 0x73657061726174ULL, static_cast<std::uint64_t>(i));
    Rng rng(seed);
    Configuration config = random_config(reg_, rng);
    const std::uint64_t before = config.fingerprint();
    // Flip one boolean flag away from its current value.
    for (;;) {
      const FlagId id = static_cast<FlagId>(rng.next_below(reg_.size()));
      if (reg_.spec(id).type != FlagType::kBool) continue;
      config.set_bool(reg_.spec(id).name, !config.get_bool(reg_.spec(id).name));
      break;
    }
    ASSERT_NE(config.fingerprint(), before) << "seed 0x" << std::hex << seed;
  }
}

// The default configuration takes the precomputed term for every flag; its
// fingerprint is pinned as persisted in tests/golden/run_time_eval_log.csv
// (row 0, the baseline).
TEST_F(FlagsProperty, DefaultFingerprintMatchesReferenceAndGolden) {
  const Configuration defaults(reg_);
  EXPECT_EQ(defaults.fingerprint(), reference_fingerprint(defaults));
  EXPECT_EQ(defaults.fingerprint(), 3571362469991511436ULL);
}

// Every double, size and enum flag moved — one at a time, then all at once
// — renders through the non-default path and must still match.
TEST_F(FlagsProperty, FingerprintMatchesReferenceWhenValueFlagsMove) {
  Rng rng(mix64(base_seed(), 0x6d6f766564ULL));
  std::vector<FlagId> moved;
  for (FlagId id = 0; id < reg_.size(); ++id) {
    const FlagType type = reg_.spec(id).type;
    if (type == FlagType::kDouble || type == FlagType::kSize ||
        type == FlagType::kEnum) {
      moved.push_back(id);
    }
  }
  ASSERT_FALSE(moved.empty());
  for (const FlagId id : moved) {
    Configuration config(reg_);
    // A few draws find a non-default value in any domain wider than one.
    for (int draw = 0; draw < 16 && config.is_default(id); ++draw) {
      config.set(id, random_value(reg_.spec(id), rng));
    }
    ASSERT_EQ(config.fingerprint(), reference_fingerprint(config))
        << reg_.spec(id).name << " = " << config.render_flag(id);
  }
  for (int i = 0; i < 100; ++i) {
    Configuration config(reg_);
    for (const FlagId id : moved) config.set(id, random_value(reg_.spec(id), rng));
    ASSERT_EQ(config.fingerprint(), reference_fingerprint(config)) << "case " << i;
  }
}

/// A small hand-made registry with one flag of every type. D defaults to
/// 0.0, so -0.0 is in its domain yet renders differently ("-0").
std::vector<FlagSpec> small_specs() {
  std::vector<FlagSpec> specs(5);
  specs[0].name = "A";
  specs[0].type = FlagType::kBool;
  specs[0].default_value = FlagValue(true);
  specs[1].name = "B";
  specs[1].type = FlagType::kInt;
  specs[1].default_value = FlagValue(std::int64_t{5});
  specs[1].int_domain = {0, 100};
  specs[2].name = "C";
  specs[2].type = FlagType::kSize;
  specs[2].default_value = FlagValue(std::int64_t{64} << 20);
  specs[2].int_domain = {std::int64_t{1} << 20, std::int64_t{1} << 30};
  specs[3].name = "D";
  specs[3].type = FlagType::kDouble;
  specs[3].default_value = FlagValue(0.0);
  specs[3].double_domain = {0.0, 1.0};
  specs[4].name = "E";
  specs[4].type = FlagType::kEnum;
  specs[4].default_value = FlagValue(std::string("x"));
  specs[4].choices = {"x", "y"};
  return specs;
}

// A hand-made registry builds its own table: its defaults, every single
// move, and the -0.0 corner (== the default, but not the same bits) all
// match the reference.
TEST(FingerprintTable, HandMadeRegistryMatchesReference) {
  const FlagRegistry registry(small_specs());
  const Configuration defaults(registry);
  EXPECT_EQ(defaults.fingerprint(), reference_fingerprint(defaults));
  EXPECT_EQ(registry.default_fingerprint_terms().size(), registry.size());
  EXPECT_NE(defaults.fingerprint(),
            Configuration(FlagRegistry::hotspot()).fingerprint());

  const std::vector<std::pair<std::string, FlagValue>> moves = {
      {"A", FlagValue(false)},
      {"B", FlagValue(std::int64_t{6})},
      {"C", FlagValue(std::int64_t{65} << 20)},
      {"D", FlagValue(0.5)},
      {"D", FlagValue(-0.0)},
      {"E", FlagValue(std::string("y"))},
  };
  for (const auto& [name, value] : moves) {
    Configuration config(registry);
    config.set(name, value);
    EXPECT_EQ(config.fingerprint(), reference_fingerprint(config))
        << name << " = " << value.render();
    EXPECT_NE(config.fingerprint(), defaults.fingerprint())
        << name << " = " << value.render();
  }
}

// First use of a registry's table from many threads at once: exactly one
// table is built and every thread sees the reference fingerprint. (Named
// for the thread-sanitizer CI job's test filter.)
TEST(FingerprintTable, ParallelFirstUseBuildsOneTable) {
  constexpr int kThreads = 8;
  const FlagRegistry registry(small_specs());
  Configuration config(registry);
  config.set("E", FlagValue(std::string("y")));
  const std::uint64_t expected = reference_fingerprint(config);

  std::latch start(kThreads);
  std::vector<std::uint64_t> seen(kThreads);
  std::vector<const std::vector<std::uint64_t>*> tables(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[t] = config.fingerprint();
      tables[t] = &registry.default_fingerprint_terms();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], expected) << "thread " << t;
    EXPECT_EQ(tables[t], tables[0]) << "thread " << t;
  }
}

// Pinned regression corners for the round-trip property. The sweep above
// is seeded and rotating in CI (JAT_FLAGS_SEED), so corners it has caught
// once are pinned here forever.
TEST_F(FlagsProperty, PinnedRoundTripCorners) {
  // Size values that are NOT multiples of any k/m/g suffix must render as
  // raw byte counts and survive. ThreadStackSize is a kInt measured in
  // kilobytes; MaxHeapSize is a kSize with page-step quantisation — use
  // whatever step the catalog declares to stay in-domain.
  {
    Configuration config(reg_);
    const FlagId id = reg_.require("MaxHeapSize");
    const IntDomain& d = reg_.spec(id).int_domain;
    const std::int64_t step = d.step > 0 ? d.step : 1;
    // One step above the low edge: small, and (for page-sized steps)
    // usually not g/m-divisible once offset from a round default.
    config.set(id, FlagValue(d.lo + step));
    const Configuration reparsed =
        parse_command_line(reg_, config.render_command_line());
    EXPECT_TRUE(reparsed == config) << config.render_command_line();
  }
  // A double that needs more than 6 significant digits: the renderer must
  // widen the precision until strtod inverts it exactly.
  {
    Configuration config(reg_);
    const FlagId id = reg_.require("CMSSmallCoalSurplusPercent");
    const DoubleDomain& d = reg_.spec(id).double_domain;
    const double awkward = d.lo + (d.hi - d.lo) * (1.0 / 3.0);
    config.set(id, FlagValue(awkward));
    const Configuration reparsed =
        parse_command_line(reg_, config.render_command_line());
    EXPECT_TRUE(reparsed == config) << config.render_command_line();
    EXPECT_EQ(reparsed.get_double("CMSSmallCoalSurplusPercent"), awkward);
  }
  // A boolean moved to false when its default is true renders as
  // -XX:-Name (not an assignment) and must still round-trip.
  {
    Configuration config(reg_);
    for (FlagId id = 0; id < reg_.size(); ++id) {
      const FlagSpec& spec = reg_.spec(id);
      if (spec.type == FlagType::kBool && spec.default_value.as_bool()) {
        config.set(id, FlagValue(false));
        break;
      }
    }
    const Configuration reparsed =
        parse_command_line(reg_, config.render_command_line());
    EXPECT_TRUE(reparsed == config) << config.render_command_line();
  }
}

}  // namespace
}  // namespace jat
