#include "flags/validate.hpp"

#include <string_view>

#include "flags/reader.hpp"

namespace jat {

namespace {

/// Every flag the start check reads, resolved to ids once per registry. A
/// check whose flags a registry lacks is skipped.
constexpr std::string_view kCheckedFlags[] = {
    "UseSerialGC", "UseParallelGC", "UseConcMarkSweepGC", "UseG1GC",
    "UseParNewGC", "UseParallelOldGC", "InitialHeapSize", "MaxHeapSize",
    "NewSize", "MaxNewSize", "MinHeapFreeRatio", "MaxHeapFreeRatio",
    "InitialTenuringThreshold", "MaxTenuringThreshold", "MetaspaceSize",
    "MaxMetaspaceSize", "G1HeapRegionSize", "G1NewSizePercent",
    "G1MaxNewSizePercent", "CMSPrecleanNumerator", "CMSPrecleanDenominator",
    "InitialCodeCacheSize", "ReservedCodeCacheSize", "TieredStopAtLevel",
    "TieredCompilation",
};
using Reader = FlagReader<kCheckedFlags>;

bool flag_true(const Reader& c, Reader::Name name) {
  return c.has(name) && c.get_bool(name);
}

std::int64_t int_or(const Reader& c, Reader::Name name, std::int64_t fallback) {
  return c.has(name) ? c.get_int(name) : fallback;
}

void check_collectors(const Reader& c, std::vector<Violation>& out) {
  const bool serial = flag_true(c, "UseSerialGC");
  const bool parallel = flag_true(c, "UseParallelGC");
  const bool cms = flag_true(c, "UseConcMarkSweepGC");
  const bool g1 = flag_true(c, "UseG1GC");
  const int primaries = (serial ? 1 : 0) + (parallel ? 1 : 0) + (cms ? 1 : 0) +
                        (g1 ? 1 : 0);
  if (primaries > 1) {
    out.push_back({"UseSerialGC",
                   "conflicting collector combinations: more than one of "
                   "UseSerialGC/UseParallelGC/UseConcMarkSweepGC/UseG1GC",
                   Severity::kFatal});
  }
  if (primaries == 0) {
    out.push_back({"UseParallelGC",
                   "no collector selected; VM would pick one ergonomically",
                   Severity::kWarning});
  }
  if (flag_true(c, "UseParNewGC") && !cms) {
    out.push_back({"UseParNewGC",
                   "UseParNewGC requires UseConcMarkSweepGC",
                   Severity::kFatal});
  }
  if (flag_true(c, "UseParallelOldGC") && !parallel) {
    out.push_back({"UseParallelOldGC",
                   "UseParallelOldGC has no effect without UseParallelGC",
                   Severity::kWarning});
  }
}

void check_heap(const Reader& c, std::vector<Violation>& out) {
  const std::int64_t initial = int_or(c, "InitialHeapSize", 0);
  const std::int64_t max = int_or(c, "MaxHeapSize", 0);
  if (initial > 0 && max > 0 && initial > max) {
    out.push_back({"InitialHeapSize",
                   "initial heap size larger than the maximum heap size",
                   Severity::kFatal});
  }
  const std::int64_t new_size = int_or(c, "NewSize", 0);
  const std::int64_t max_new = int_or(c, "MaxNewSize", 0);
  if (max_new > 0 && new_size > max_new) {
    out.push_back({"NewSize",
                   "NewSize exceeds MaxNewSize; VM raises MaxNewSize",
                   Severity::kWarning});
  }
  if (max > 0 && new_size > max) {
    out.push_back({"NewSize",
                   "young generation larger than the whole heap",
                   Severity::kFatal});
  }
  const std::int64_t min_free = int_or(c, "MinHeapFreeRatio", 40);
  const std::int64_t max_free = int_or(c, "MaxHeapFreeRatio", 70);
  if (min_free > max_free) {
    out.push_back({"MinHeapFreeRatio",
                   "MinHeapFreeRatio exceeds MaxHeapFreeRatio",
                   Severity::kFatal});
  }
  const std::int64_t init_tenure = int_or(c, "InitialTenuringThreshold", 7);
  const std::int64_t max_tenure = int_or(c, "MaxTenuringThreshold", 15);
  if (init_tenure > max_tenure) {
    out.push_back({"InitialTenuringThreshold",
                   "InitialTenuringThreshold exceeds MaxTenuringThreshold",
                   Severity::kFatal});
  }
  if (c.has("MetaspaceSize") && c.has("MaxMetaspaceSize") &&
      c.get_int("MetaspaceSize") > c.get_int("MaxMetaspaceSize")) {
    out.push_back({"MetaspaceSize",
                   "MetaspaceSize exceeds MaxMetaspaceSize; VM clamps it",
                   Severity::kWarning});
  }
}

void check_g1(const Reader& c, std::vector<Violation>& out) {
  if (!c.has("G1HeapRegionSize")) return;
  const std::int64_t region = c.get_int("G1HeapRegionSize");
  if (region != 0 && (region & (region - 1)) != 0) {
    out.push_back({"G1HeapRegionSize",
                   "G1HeapRegionSize must be a power of two",
                   Severity::kFatal});
  }
  if (c.has("G1NewSizePercent") && c.has("G1MaxNewSizePercent") &&
      c.get_int("G1NewSizePercent") > c.get_int("G1MaxNewSizePercent")) {
    out.push_back({"G1NewSizePercent",
                   "G1NewSizePercent exceeds G1MaxNewSizePercent",
                   Severity::kFatal});
  }
}

void check_cms(const Reader& c, std::vector<Violation>& out) {
  if (c.has("CMSPrecleanNumerator") && c.has("CMSPrecleanDenominator") &&
      c.get_int("CMSPrecleanNumerator") >= c.get_int("CMSPrecleanDenominator")) {
    out.push_back({"CMSPrecleanNumerator",
                   "CMSPrecleanNumerator must be less than CMSPrecleanDenominator",
                   Severity::kFatal});
  }
}

void check_compiler(const Reader& c, std::vector<Violation>& out) {
  if (c.has("InitialCodeCacheSize") && c.has("ReservedCodeCacheSize") &&
      c.get_int("InitialCodeCacheSize") > c.get_int("ReservedCodeCacheSize")) {
    out.push_back({"InitialCodeCacheSize",
                   "initial code cache larger than the reserved code cache",
                   Severity::kFatal});
  }
  if (c.has("TieredStopAtLevel") && c.has("TieredCompilation") &&
      !c.get_bool("TieredCompilation") && c.get_int("TieredStopAtLevel") != 4) {
    out.push_back({"TieredStopAtLevel",
                   "TieredStopAtLevel has no effect without TieredCompilation",
                   Severity::kWarning});
  }
}

}  // namespace

std::vector<Violation> validate(const Configuration& config) {
  const Reader reader(config);
  std::vector<Violation> out;
  check_collectors(reader, out);
  check_heap(reader, out);
  check_g1(reader, out);
  check_cms(reader, out);
  check_compiler(reader, out);
  return out;
}

bool is_startable(const Configuration& config) {
  for (const auto& v : validate(config)) {
    if (v.severity == Severity::kFatal) return false;
  }
  return true;
}

std::string first_fatal(const Configuration& config) {
  for (const auto& v : validate(config)) {
    if (v.severity == Severity::kFatal) return v.message;
  }
  return "";
}

}  // namespace jat
