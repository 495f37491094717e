// Property/fuzz sweep over the journal record dialect and its two on-disk
// consumers: the session journal reader and the cross-session result
// store. The contract under mutation is total: for ANY corruption of a
// valid file — random byte flips, truncation at every offset, duplicated
// lines — the reader must produce a clean load, a truncated-tail
// recovery, or a structured JournalError; it must never crash, hang, or
// silently return garbage. ~10k mutated cases run in ctest; every failure
// message carries the case seed, so a red run is reproducible with
//   JAT_FUZZ_SEED=<seed> ctest -R JournalFuzz
#include "harness/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include <unistd.h>
#include <string>
#include <vector>

#include "harness/store.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/session.hpp"
#include "workloads/workload.hpp"

namespace jat {
namespace {

/// Tests in this binary run as separate ctest processes, possibly in
/// parallel; every scratch path is pid-suffixed so they never share files.
std::string scratch(const std::string& name) {
  return ::testing::TempDir() + "jat_fuzz_" + std::to_string(::getpid()) +
         "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Base seed for the sweep: overridable from the environment so a red CI
/// run replays locally with the identical mutation sequence.
std::uint64_t base_seed() {
  if (const char* env = std::getenv("JAT_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0x6a61745f66757a7aULL;  // "jat_fuzz"
}

/// Splits a file into its lines (without the newlines).
std::vector<std::string> split_lines(const std::string& bytes) {
  std::vector<std::string> lines;
  std::istringstream in(bytes);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string bytes;
  for (const std::string& line : lines) bytes += line + "\n";
  return bytes;
}

/// Flips 1..3 bytes of a record's body (half the time next to a backslash,
/// so escapes get cut and rewritten), never into a newline, then recomputes
/// its checksum: the mutation reaches the JSON reader instead of stopping
/// at the checksum.
std::string mutate_resealed(const std::string& line, Rng& rng) {
  constexpr std::size_t kCrcSuffix = 26;  // ,"crc":"<16 hex>"}
  std::string body = line.substr(0, line.size() - kCrcSuffix);
  const int flips = static_cast<int>(rng.next_below(3)) + 1;
  for (int f = 0; f < flips; ++f) {
    std::size_t at = rng.next_below(body.size());
    const std::size_t slash = body.find('\\', rng.next_below(body.size()));
    if (slash != std::string::npos && rng.chance(0.5)) {
      at = std::min(body.size() - 1, slash + rng.next_below(6));
    }
    char c = static_cast<char>(rng.next_below(256));
    if (c == '\n') c = '"';
    body[at] = c;
  }
  char crc[32];
  std::snprintf(crc, sizeof crc, ",\"crc\":\"%016llx\"}",
                static_cast<unsigned long long>(fnv1a64("}", fnv1a64(body))));
  return body + crc;
}

/// One real journal, written by a real (small) session: meta record,
/// a few dozen eval records, an end record. A synthetic corpus would
/// drift from what sessions actually write.
std::string valid_journal_bytes() {
  static const std::string bytes = [] {
    set_log_level(LogLevel::kOff);
    const std::string path = scratch("corpus.jsonl");
    WorkloadSpec w;
    // Quote, backslash and a control character: the meta record's strings
    // take the reader's unescape path.
    w.name = "fuzz-corpus \"quoted\" back\\slash \x01";
    w.total_work = 300;
    w.startup_work = 60;
    w.startup_classes = 900;
    w.noise_sigma = 0.01;
    SessionOptions options;
    options.budget = SimTime::minutes(4);
    options.seed = 1234;
    JvmSimulator sim;
    SessionJournal journal = SessionJournal::create(path);
    options.journal = &journal;
    TuningSession session(sim, w, options);
    HillClimber tuner;
    session.run(tuner);
    journal.flush();
    return slurp(path);
  }();
  return bytes;
}

/// Baseline facts about the unmutated corpus, asserted once so the fuzz
/// properties below compare against a known-good load.
struct CorpusFacts {
  std::size_t bytes = 0;
  std::size_t committed = 0;
  bool ended = false;
};

CorpusFacts corpus_facts() {
  static const CorpusFacts facts = [] {
    const std::string path = scratch("facts.jsonl");
    spit(path, valid_journal_bytes());
    SessionJournal journal = SessionJournal::resume(path);
    CorpusFacts f;
    f.bytes = valid_journal_bytes().size();
    f.committed = journal.committed().size();
    f.ended = journal.ended();
    return f;
  }();
  return facts;
}

/// Every acceptable outcome of reading a mutated journal. Anything else
/// (a crash, another exception type, a hang caught by the ctest timeout)
/// fails the sweep.
enum class Outcome { kClean, kRecovered, kStructuredError };

Outcome read_mutated_journal(const std::string& bytes,
                             const std::string& path) {
  spit(path, bytes);
  try {
    SessionJournal journal = SessionJournal::resume(path);
    // The tolerant reader may only ever shorten the committed ledger
    // relative to the corpus (it truncates at the first bad record, and
    // a duplicated line either errors or is itself the bad record).
    EXPECT_LE(journal.committed().size(), corpus_facts().committed);
    return journal.dropped_records() == 0 && journal.warnings().empty()
               ? Outcome::kClean
               : Outcome::kRecovered;
  } catch (const JournalError&) {
    return Outcome::kStructuredError;
  }
  // Any other exception escapes and fails the test with its type.
}

class JournalFuzz : public ::testing::Test {
 protected:
  JournalFuzz() { set_log_level(LogLevel::kOff); }
};

// Truncation at EVERY byte offset: a torn tail (power cut mid-append) can
// land anywhere, including inside the meta record. Short prefixes lose
// the meta record -> JournalError; longer ones recover a prefix of the
// ledger; line-boundary cuts load clean.
TEST_F(JournalFuzz, TruncationAtEveryOffsetRecoversOrErrorsStructurally) {
  const std::string corpus = valid_journal_bytes();
  ASSERT_GT(corpus.size(), 1000u);
  const std::string path = scratch("trunc.jsonl");
  std::int64_t clean = 0, recovered = 0, structured = 0;
  for (std::size_t cut = 0; cut < corpus.size(); ++cut) {
    switch (read_mutated_journal(corpus.substr(0, cut), path)) {
      case Outcome::kClean: ++clean; break;
      case Outcome::kRecovered: ++recovered; break;
      case Outcome::kStructuredError: ++structured; break;
    }
    if (HasFailure()) {
      FAIL() << "truncation at offset " << cut << " of " << corpus.size();
    }
  }
  // All three outcomes must actually occur across the sweep — otherwise
  // the classification (and this test) is vacuous.
  EXPECT_GT(clean, 0);
  EXPECT_GT(recovered, 0);
  EXPECT_GT(structured, 0);
}

// Seeded random byte flips — the bulk of the 10k-case budget. Flips hit
// payload bytes, CRC hex digits, structural JSON characters, and
// newlines; every one must classify.
TEST_F(JournalFuzz, RandomByteFlipsNeverEscapeTheTolerantReader) {
  const std::string corpus = valid_journal_bytes();
  const std::string path = scratch("flip.jsonl");
  constexpr int kCases = 7000;
  std::int64_t structured = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed = mix64(base_seed(), static_cast<std::uint64_t>(i));
    Rng rng(seed);
    std::string mutated = corpus;
    // 1..4 independent flips: single-bit, whole-byte, and zeroing.
    const int flips = static_cast<int>(rng.next_below(4)) + 1;
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0:
          mutated[at] = static_cast<char>(
              static_cast<unsigned char>(mutated[at]) ^
              (1u << rng.next_below(8)));
          break;
        case 1:
          mutated[at] = static_cast<char>(rng.next_below(256));
          break;
        default:
          mutated[at] = '\0';
          break;
      }
    }
    if (read_mutated_journal(mutated, path) == Outcome::kStructuredError) {
      ++structured;
    }
    if (HasFailure()) {
      FAIL() << "byte-flip case " << i << " failed; replay with seed 0x"
             << std::hex << seed;
    }
  }
  // Flipping bytes must not usually destroy the whole journal: the meta
  // record is one line out of dozens.
  EXPECT_LT(structured, kCases / 2);
}

// Duplicated lines: a retried append or a copy-paste merge of two
// journals. Duplicate eval records are out-of-order sequence numbers —
// JournalError by contract, never silent double-application; a duplicated
// meta/end line must also classify.
TEST_F(JournalFuzz, DuplicatedLinesErrorOrTruncateNeverDoubleApply) {
  const std::vector<std::string> lines = split_lines(valid_journal_bytes());
  ASSERT_GT(lines.size(), 5u);
  const std::string path = scratch("dup.jsonl");

  constexpr int kCases = 1500;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        mix64(base_seed() ^ 0xd0b1ed11ULL, static_cast<std::uint64_t>(i));
    Rng rng(seed);
    std::vector<std::string> mutated = lines;
    const std::size_t src = rng.next_below(mutated.size());
    const std::size_t dst = rng.next_below(mutated.size() + 1);
    mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(dst),
                   mutated[src]);
    read_mutated_journal(join_lines(mutated), path);
    if (HasFailure()) {
      FAIL() << "duplicate-line case " << i << " (line " << src
             << " duplicated at " << dst << ") failed; replay with seed 0x"
             << std::hex << seed;
    }
  }
}

// Re-sealed body mutations: the checksum holds, so the JSON reader itself
// (strings with escapes included) sees the damage. Every case must still
// classify; a non-string `type` used to escape as std::bad_variant_access.
TEST_F(JournalFuzz, ResealedMutationsReachTheReaderAndStillClassify) {
  const std::vector<std::string> lines = split_lines(valid_journal_bytes());
  const std::string path = scratch("reseal.jsonl");
  constexpr int kCases = 1500;
  int parsed = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        mix64(base_seed() ^ 0x5ea1edULL, static_cast<std::uint64_t>(i));
    Rng rng(seed);
    std::vector<std::string> mutated = lines;
    // Every other case hits the meta record, the line with escapes.
    const std::size_t index = i % 2 == 0 ? 0 : rng.next_below(lines.size());
    mutated[index] = mutate_resealed(lines[index], rng);
    if (journal_decode_record(mutated[index], index + 1).has_value()) ++parsed;
    read_mutated_journal(join_lines(mutated), path);
    if (HasFailure()) {
      FAIL() << "resealed case " << i << " (line " << index + 1
             << ") failed; replay with seed 0x" << std::hex << seed;
    }
  }
  // Both sides of the reader occur: mutations it parses, and ones it
  // rejects as malformed.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kCases);
}

// ---------------------------------------------------------------------------
// The store shares the record dialect; its reader is *more* tolerant (a
// multi-writer file cannot truncate interior corruption away): open()
// must never throw on ANY mutation of a valid store file, and every
// record it does load must be well-formed enough to serve lookups.

std::string valid_store_bytes() {
  static const std::string bytes = [] {
    set_log_level(LogLevel::kOff);
    const std::string dir = scratch("store_corpus");
    [[maybe_unused]] const int rc =
        std::system(("rm -rf '" + dir + "'").c_str());
    auto store = ResultStore::open(dir);
    WorkloadSpec w;
    w.name = "fuzz-store \"quoted\" back\\slash \x01";
    w.total_work = 300;
    store->put_workload(42, w);
    for (int i = 0; i < 12; ++i) {
      StoreRecord r;
      r.key = {42, workload_fingerprint(w),
               static_cast<std::uint64_t>(i + 1), "run_time"};
      r.workload = w.name;
      r.command_line = "-XX:NewRatio=" + std::to_string(i % 9 + 1);
      if (i % 3 == 0) r.command_line += " -XX:OnError=\"echo \\ \x01\"";
      r.objective_value = 1000.0 + i * 3.25;
      r.times_ms = {1000.0 + i, 1001.0 + i, 999.5 + i};
      MetricVector m;
      m[MetricId::kTotalTimeMs] = 1000.0 + i;
      r.rep_metrics = {m, m, m};
      r.seed = 7;
      store->put(r);
    }
    return slurp(dir + "/store.jsonl");
  }();
  return bytes;
}

class StoreFuzz : public ::testing::Test {
 protected:
  StoreFuzz() { set_log_level(LogLevel::kOff); }

  /// Writes `bytes` as a store file and opens it read-only; must never
  /// throw. Returns loaded/dropped counters for the distribution checks.
  StoreStats open_mutated(const std::string& bytes) {
    const std::string dir = scratch("store_case");
    [[maybe_unused]] const int rc =
        std::system(("rm -rf '" + dir + "'; mkdir -p '" + dir + "'").c_str());
    spit(dir + "/store.jsonl", bytes);
    auto store = ResultStore::open(dir, {.read_only = true});
    return store->stats();
  }
};

TEST_F(StoreFuzz, TruncationAtEveryOffsetLoadsAPrefix) {
  const std::string corpus = valid_store_bytes();
  ASSERT_GT(corpus.size(), 500u);
  CorpusFacts unused = corpus_facts();  // keep journal corpus warm
  (void)unused;
  const StoreStats whole = open_mutated(corpus);
  for (std::size_t cut = 0; cut < corpus.size(); ++cut) {
    const StoreStats stats = open_mutated(corpus.substr(0, cut));
    EXPECT_LE(stats.records, whole.records) << "cut at " << cut;
    if (HasFailure()) FAIL() << "store truncation at offset " << cut;
  }
}

TEST_F(StoreFuzz, RandomByteFlipsNeverThrowOutOfOpen) {
  const std::string corpus = valid_store_bytes();
  const StoreStats whole = open_mutated(corpus);
  constexpr int kCases = 1500;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        mix64(base_seed() ^ 0x5701eULL, static_cast<std::uint64_t>(i));
    Rng rng(seed);
    std::string mutated = corpus;
    const std::size_t at = rng.next_below(mutated.size());
    mutated[at] = static_cast<char>(rng.next_below(256));
    const StoreStats stats = open_mutated(mutated);
    // A single byte can kill at most the line it lives on (newline flips
    // can merge two lines: two records lost, one bad line counted).
    EXPECT_GE(stats.records, whole.records - 2) << "case " << i;
    EXPECT_LE(stats.records, whole.records) << "case " << i;
    if (HasFailure()) {
      FAIL() << "store byte-flip case " << i << " failed; replay with seed 0x"
             << std::hex << seed;
    }
  }
}

/// strtod over a space-separated stream: how the store read its numbers
/// before std::from_chars.
std::vector<double> strtod_stream(const std::string& text) {
  std::vector<double> out;
  const char* p = text.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const double t = std::strtod(p, &end);
    if (end == p) break;
    out.push_back(t);
    p = end;
    while (*p == ' ') ++p;
  }
  return out;
}

/// The store's decoding before its one-pass reader, kept as the reference:
/// the event journal_decode_record builds, read through TraceEvent's getters.
StoreRecord reference_result(const TraceEvent& event) {
  const auto hex = [&](const char* key) {
    return std::strtoull(event.get_string(key).c_str(), nullptr, 16);
  };
  StoreRecord rec;
  rec.key = {hex("space"), hex("wl"), hex("cfg"),
             event.get_string("objective", "run_time")};
  rec.workload = event.get_string("workload");
  const std::string value = event.get_string("value");
  rec.objective_value = value.empty()
                            ? std::numeric_limits<double>::quiet_NaN()
                            : std::strtod(value.c_str(), nullptr);
  rec.times_ms = strtod_stream(event.get_string("times_ms"));
  const std::string metrics = event.get_string("metrics");
  if (!metrics.empty()) {
    const std::vector<double> flat = strtod_stream(metrics);
    const auto cols = static_cast<std::size_t>(kMetricCount);
    if (event.get_int("metric_cols", kMetricCount) == kMetricCount &&
        flat.size() == rec.times_ms.size() * cols) {
      rec.rep_metrics.resize(rec.times_ms.size());
      for (std::size_t r = 0; r < rec.rep_metrics.size(); ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          rec.rep_metrics[r].v[c] = flat[r * cols + c];
        }
      }
    }
  }
  rec.stop = stop_reason_from_string(event.get_string("stop", "full"));
  rec.failed_reps = static_cast<int>(event.get_int("failed_reps"));
  rec.seed = std::strtoull(event.get_string("seed", "0").c_str(), nullptr, 10);
  rec.command_line = event.get_string("command_line");
  return rec;
}

std::vector<std::uint64_t> record_bits(const StoreRecord& rec) {
  std::vector<std::uint64_t> out = {
      rec.key.space_fingerprint, rec.key.workload_fingerprint,
      rec.key.config_fingerprint, fnv1a64(rec.key.objective),
      fnv1a64(rec.workload), fnv1a64(rec.command_line),
      std::bit_cast<std::uint64_t>(rec.objective_value),
      static_cast<std::uint64_t>(rec.stop),
      static_cast<std::uint64_t>(rec.failed_reps), rec.seed,
      rec.times_ms.size(), rec.rep_metrics.size()};
  for (const double t : rec.times_ms) out.push_back(std::bit_cast<std::uint64_t>(t));
  for (const MetricVector& row : rec.rep_metrics) {
    for (const double v : row.v) out.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return out;
}

// Re-sealed mutations decode to exactly what the event reader makes of them:
// the store's in-place field decoder (first occurrence of a key counts, a
// value of the wrong type reads as the default) against the reference.
TEST_F(StoreFuzz, ResealedMutationsDecodeAsTheEventReaderDid) {
  const std::vector<std::string> lines = split_lines(valid_store_bytes());
  constexpr int kCases = 1500;
  int results = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        mix64(base_seed() ^ 0x5ea1ed5ULL, static_cast<std::uint64_t>(i));
    Rng rng(seed);
    const std::string line =
        mutate_resealed(lines[rng.next_below(lines.size())], rng);
    const std::string dir = scratch("store_case");
    const StoreStats stats = open_mutated(line + "\n");
    auto store = ResultStore::open(dir, {.read_only = true});

    const std::optional<TraceEvent> event = journal_decode_record(line, 1);
    if (!event.has_value()) {
      EXPECT_EQ(stats.dropped, 1) << "case " << i;
    } else if (event->type == "store_result") {
      const StoreRecord expected = reference_result(*event);
      if (expected.times_ms.empty()) {
        EXPECT_EQ(stats.dropped, 1) << "case " << i;
      } else {
        const StoreRecord* loaded = store->lookup(expected.key);
        ASSERT_NE(loaded, nullptr) << "case " << i;
        EXPECT_EQ(record_bits(*loaded), record_bits(expected)) << "case " << i;
        ++results;
      }
    } else if (event->type == "store_workload") {
      const auto hex = [&](const char* key) {
        return std::strtoull(event->get_string(key).c_str(), nullptr, 16);
      };
      const StoreWorkloadInfo* info = store->workload_info(hex("wl"));
      ASSERT_NE(info, nullptr) << "case " << i;
      EXPECT_EQ(info->space_fingerprint, hex("space"));
      EXPECT_EQ(info->name, event->get_string("name"));
      const std::vector<double> features =
          strtod_stream(event->get_string("features"));
      ASSERT_EQ(info->features.size(), features.size()) << "case " << i;
      for (std::size_t f = 0; f < features.size(); ++f) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(info->features[f]),
                  std::bit_cast<std::uint64_t>(features[f]));
      }
    } else {
      EXPECT_EQ(stats.loaded + stats.dropped, 0) << "case " << i;
    }
    if (HasFailure()) {
      FAIL() << "resealed store case " << i << " failed; replay with seed 0x"
             << std::hex << seed << "\n" << line;
    }
  }
  EXPECT_GT(results, 0);
}

}  // namespace
}  // namespace jat
