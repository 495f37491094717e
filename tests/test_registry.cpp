#include "flags/registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "flags/reader.hpp"

#include "support/error.hpp"

namespace jat {
namespace {

FlagSpec make_bool(const char* name, bool def = false) {
  FlagSpec s;
  s.name = name;
  s.type = FlagType::kBool;
  s.default_value = FlagValue(def);
  return s;
}

TEST(FlagRegistry, RejectsDuplicateNames) {
  EXPECT_THROW(FlagRegistry({make_bool("A"), make_bool("A")}), FlagError);
}

TEST(FlagRegistry, RejectsUnnamedFlag) {
  FlagSpec s = make_bool("");
  EXPECT_THROW(FlagRegistry({s}), FlagError);
}

TEST(FlagRegistry, RejectsDefaultOutOfDomain) {
  FlagSpec s;
  s.name = "Bad";
  s.type = FlagType::kInt;
  s.default_value = FlagValue(std::int64_t{100});
  s.int_domain = {0, 10, false, 1};
  EXPECT_THROW(FlagRegistry({s}), FlagError);
}

TEST(FlagRegistry, FindAndRequire) {
  FlagRegistry reg({make_bool("X"), make_bool("Y")});
  EXPECT_EQ(reg.find("X"), 0u);
  EXPECT_EQ(reg.find("Y"), 1u);
  EXPECT_EQ(reg.find("Z"), kInvalidFlag);
  EXPECT_EQ(reg.require("Y"), 1u);
  EXPECT_THROW(reg.require("Z"), FlagError);
}

TEST(FlagRegistry, FindTakesAViewIntoALargerString) {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  const std::string_view text = "-XX:CMSInitiatingOccupancyFraction=70";
  EXPECT_EQ(reg.find(text.substr(4, 30)),
            reg.require("CMSInitiatingOccupancyFraction"));
  EXPECT_EQ(reg.find(text.substr(4, 29)), kInvalidFlag);
}

TEST(FlagRegistry, DefaultsHoldEverySpecsDefault) {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  ASSERT_EQ(reg.defaults().size(), reg.size());
  for (FlagId id = 0; id < reg.size(); ++id) {
    EXPECT_EQ(reg.defaults()[id], reg.spec(id).default_value) << reg.spec(id).name;
  }
}

constexpr std::string_view kListedFlags[] = {"Y", "Absent", "X"};

// A name list resolves once per registry, to that registry's ids, and to
// kInvalidFlag for a name the registry lacks; concurrent first uses agree.
TEST(FlagRegistry, ResolvesANameListOncePerRegistry) {
  static const FlagNameList list(kListedFlags);
  const FlagRegistry xy({make_bool("X"), make_bool("Y")});
  const FlagRegistry yx({make_bool("Y"), make_bool("Z"), make_bool("X")});

  std::vector<const std::vector<FlagId>*> seen(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] { seen[t] = &xy.resolve(list); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto* ids : seen) EXPECT_EQ(ids, seen.front());
  EXPECT_EQ(*seen.front(), (std::vector<FlagId>{1, kInvalidFlag, 0}));
  EXPECT_EQ(yx.resolve(list), (std::vector<FlagId>{0, kInvalidFlag, 2}));

  // Reads by id; an absent flag reads as a by-name read of it does.
  Configuration config(yx);
  config.set_bool("X", true);
  const FlagReader<kListedFlags> read(config);
  EXPECT_TRUE(read.get_bool("X"));
  EXPECT_FALSE(read.get_bool("Y"));
  EXPECT_FALSE(read.has("Absent"));
  EXPECT_EQ(read.id("X"), 2u);
  try {
    (void)read.get("Absent");
    ADD_FAILURE() << "read an absent flag";
  } catch (const FlagError& e) {
    EXPECT_STREQ(e.what(), "unknown flag: Absent");
  }
}

TEST(HotspotCatalog, HasAtLeast600Flags) {
  // The paper: "the Hot Spot JVM comes with over 600 flags".
  EXPECT_GE(FlagRegistry::hotspot().size(), 600u);
}

TEST(HotspotCatalog, AllNamesUnique) {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  std::set<std::string> names;
  for (FlagId id = 0; id < reg.size(); ++id) {
    EXPECT_TRUE(names.insert(reg.spec(id).name).second)
        << "duplicate: " << reg.spec(id).name;
  }
}

TEST(HotspotCatalog, WellKnownFlagsPresentWithSaneDefaults) {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  const auto& max_heap = reg.spec(reg.require("MaxHeapSize"));
  EXPECT_EQ(max_heap.type, FlagType::kSize);
  EXPECT_EQ(max_heap.default_value.as_int(), std::int64_t{1} << 30);

  EXPECT_TRUE(reg.spec(reg.require("UseParallelGC")).default_value.as_bool());
  EXPECT_FALSE(reg.spec(reg.require("UseG1GC")).default_value.as_bool());
  EXPECT_FALSE(reg.spec(reg.require("UseSerialGC")).default_value.as_bool());
  EXPECT_FALSE(reg.spec(reg.require("UseConcMarkSweepGC")).default_value.as_bool());
  EXPECT_TRUE(reg.spec(reg.require("TieredCompilation")).default_value.as_bool());
  EXPECT_EQ(reg.spec(reg.require("CompileThreshold")).default_value.as_int(), 10000);
  EXPECT_EQ(reg.spec(reg.require("MaxTenuringThreshold")).default_value.as_int(), 15);
  EXPECT_EQ(reg.spec(reg.require("VMMode")).type, FlagType::kEnum);
}

TEST(HotspotCatalog, EveryDefaultInsideItsDomain) {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  for (FlagId id = 0; id < reg.size(); ++id) {
    const FlagSpec& spec = reg.spec(id);
    EXPECT_TRUE(spec.in_domain(spec.default_value)) << spec.name;
  }
}

TEST(HotspotCatalog, EveryFlagHasDescription) {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  for (FlagId id = 0; id < reg.size(); ++id) {
    EXPECT_FALSE(reg.spec(id).description.empty()) << reg.spec(id).name;
  }
}

TEST(HotspotCatalog, ImpactfulSubsetIsSubstantialButMinority) {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  const auto impactful = reg.impactful();
  EXPECT_GE(impactful.size(), 100u);
  // Most of the catalog is the performance-inert long tail — the situation
  // the paper's hierarchy is designed for.
  EXPECT_LT(impactful.size(), reg.size() / 2);
}

TEST(HotspotCatalog, SubsystemQueriesPartitionTheCatalog) {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  std::size_t total = 0;
  for (int s = 0; s <= static_cast<int>(Subsystem::kDiagnostic); ++s) {
    total += reg.by_subsystem(static_cast<Subsystem>(s)).size();
  }
  EXPECT_EQ(total, reg.size());
}

TEST(HotspotCatalog, CmsAndG1SubsystemsNonEmpty) {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  EXPECT_GE(reg.by_subsystem(Subsystem::kGcCms).size(), 40u);
  EXPECT_GE(reg.by_subsystem(Subsystem::kGcG1).size(), 20u);
  EXPECT_GE(reg.by_subsystem(Subsystem::kCompiler).size(), 50u);
}

TEST(HotspotCatalog, SpaceSizeIsAstronomical) {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  // Hundreds of orders of magnitude: the paper's point that exhaustive
  // search is hopeless.
  EXPECT_GT(reg.log10_space_size_all(), 200.0);
}

TEST(HotspotCatalog, SubsetSpaceSmallerThanFull) {
  const FlagRegistry& reg = FlagRegistry::hotspot();
  const auto impactful = reg.impactful();
  EXPECT_LT(reg.log10_space_size(impactful), reg.log10_space_size_all());
  EXPECT_GT(reg.log10_space_size(impactful), 0.0);
}

TEST(FlagSpecDomain, BoolCardinalityIsTwo) {
  FlagSpec s = make_bool("B");
  EXPECT_EQ(s.domain_cardinality(), 2.0);
}

TEST(FlagSpecDomain, IntCardinalityRespectsStep) {
  FlagSpec s;
  s.name = "I";
  s.type = FlagType::kInt;
  s.default_value = FlagValue(std::int64_t{0});
  s.int_domain = {0, 100, false, 10};
  EXPECT_EQ(s.domain_cardinality(), 11.0);
}

TEST(FlagSpecDomain, WideIntCardinalityClamped) {
  FlagSpec s;
  s.name = "W";
  s.type = FlagType::kSize;
  s.default_value = FlagValue(std::int64_t{0});
  s.int_domain = {0, std::int64_t{1} << 40, true, 1};
  EXPECT_EQ(s.domain_cardinality(), 1048576.0);
}

TEST(FlagSpecDomain, InDomainChecksTypeAndRange) {
  FlagSpec s;
  s.name = "E";
  s.type = FlagType::kEnum;
  s.choices = {"a", "b"};
  s.default_value = FlagValue(std::string("a"));
  EXPECT_TRUE(s.in_domain(FlagValue(std::string("b"))));
  EXPECT_FALSE(s.in_domain(FlagValue(std::string("c"))));
  EXPECT_FALSE(s.in_domain(FlagValue(true)));
}

}  // namespace
}  // namespace jat
