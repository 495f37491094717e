// Tests for the tracing layer: event/metrics primitives, the JSONL dialect,
// schema validation of everything a real session emits, and the headline
// guarantee — a session's outcome is reconstructible from its trace alone.
#include "support/trace.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "harness/journal.hpp"
#include "harness/trace_analysis.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "tuner/session.hpp"
#include "tuner/suite_session.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- TraceEvent --------------------------------------------------------------

TEST(TraceEvent, BuilderAndTypedGetters) {
  const TraceEvent e = TraceEvent("eval", SimTime::seconds(3))
                           .with("count", std::int64_t{7})
                           .with("ms", 12.5)
                           .with("name", std::string("subtree"))
                           .with("ok", true);
  EXPECT_EQ(e.type, "eval");
  EXPECT_EQ(e.at, SimTime::seconds(3));
  EXPECT_TRUE(e.has("count"));
  EXPECT_FALSE(e.has("missing"));
  EXPECT_EQ(e.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(e.get_double("ms"), 12.5);
  EXPECT_EQ(e.get_string("name"), "subtree");
  EXPECT_TRUE(e.get_bool("ok"));
  // Fallbacks for absent keys.
  EXPECT_EQ(e.get_int("missing", -1), -1);
  EXPECT_EQ(e.get_string("missing", "x"), "x");
}

TEST(TraceEvent, LenientNumericConversions) {
  const TraceEvent e = TraceEvent("x")
                           .with("i", std::int64_t{5})
                           .with("d", 2.0)
                           .with("inf", std::string("inf"))
                           .with("ninf", std::string("-inf"))
                           .with("nan", std::string("nan"));
  EXPECT_DOUBLE_EQ(e.get_double("i"), 5.0);  // int reads as double
  EXPECT_EQ(e.get_int("d"), 2);              // double reads as int
  EXPECT_EQ(e.get_double("inf"), kInf);
  EXPECT_EQ(e.get_double("ninf"), -kInf);
  EXPECT_TRUE(std::isnan(e.get_double("nan")));
}

TEST(FingerprintHex, RoundTripsThroughStrings) {
  EXPECT_EQ(fingerprint_hex(0), "0x0000000000000000");
  EXPECT_EQ(fingerprint_hex(0xdeadbeefcafebabeULL), "0xdeadbeefcafebabe");
}

// ---- TraceSink + JSONL -------------------------------------------------------

TEST(TraceSink, EmitAndFilter) {
  TraceSink sink;
  sink.emit(TraceEvent("eval").with("i", std::int64_t{0}));
  sink.emit(TraceEvent("phase").with("name", std::string("refine")));
  sink.emit(TraceEvent("eval").with("i", std::int64_t{1}));
  EXPECT_EQ(sink.size(), 3u);
  const auto evals = sink.events_of("eval");
  ASSERT_EQ(evals.size(), 2u);
  EXPECT_EQ(evals[0].get_int("i"), 0);
  EXPECT_EQ(evals[1].get_int("i"), 1);
}

TEST(TraceSink, JsonlRoundTripsAllValueShapes) {
  TraceSink sink;
  sink.emit(TraceEvent("eval", SimTime::millis(1500))
                .with("fingerprint", fingerprint_hex(0xabcdef0123456789ULL))
                .with("objective_ms", 1234.5678901234567)
                .with("attempts", std::int64_t{3})
                .with("accepted", false)
                .with("crashed", kInf)
                .with("neg", -kInf)
                .with("nan", std::nan("")));
  sink.emit(TraceEvent("note").with(
      "text", std::string("hostile \"quotes\", commas,\nnewlines\tand \\ slashes")));

  std::ostringstream out;
  sink.write_jsonl(out);
  std::istringstream in(out.str());
  std::string warning;
  const auto loaded = TraceSink::load_jsonl_lenient(in, &warning);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(warning.empty());

  const TraceEvent& e = loaded[0];
  EXPECT_EQ(e.type, "eval");
  EXPECT_EQ(e.at, SimTime::millis(1500));
  EXPECT_EQ(e.get_string("fingerprint"), "0xabcdef0123456789");
  EXPECT_DOUBLE_EQ(e.get_double("objective_ms"), 1234.5678901234567);
  EXPECT_EQ(e.get_int("attempts"), 3);
  EXPECT_FALSE(e.get_bool("accepted"));
  EXPECT_EQ(e.get_double("crashed"), kInf);
  EXPECT_EQ(e.get_double("neg"), -kInf);
  EXPECT_TRUE(std::isnan(e.get_double("nan")));
  EXPECT_EQ(loaded[1].get_string("text"),
            "hostile \"quotes\", commas,\nnewlines\tand \\ slashes");
}

TEST(TraceSink, JsonlFileRoundTrip) {
  TraceSink sink;
  for (int i = 0; i < 10; ++i) {
    sink.emit(TraceEvent("eval", SimTime::seconds(i))
                  .with("i", static_cast<std::int64_t>(i)));
  }
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.jsonl";
  ASSERT_TRUE(sink.save_jsonl(path));
  const auto loaded = TraceSink::load_jsonl_file_lenient(path);
  ASSERT_EQ(loaded.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(loaded[static_cast<std::size_t>(i)].get_int("i"), i);
    EXPECT_EQ(loaded[static_cast<std::size_t>(i)].at, SimTime::seconds(i));
  }
}

TEST(TraceSink, LoadRejectsMalformedInput) {
  // Each line parses whole or throws; the loader forgives only a torn
  // final line (below), so the same lines before a good one throw.
  const std::string good = "{\"type\":\"eval\",\"t_s\":1}\n";
  for (const std::string bad :
       {"this is not json", "{\"type\":\"eval\",\"s\":\"never closed"}) {
    EXPECT_THROW(parse_trace_jsonl_line(bad), Error) << bad;
    std::istringstream in(bad + "\n" + good);
    EXPECT_THROW(TraceSink::load_jsonl_lenient(in), Error) << bad;
  }
}

TEST(TraceSink, LenientLoadDropsOnlyATornFinalLine) {
  // A killed writer leaves a torn final record; the lenient loader keeps
  // the valid prefix and reports what it dropped.
  const std::string good =
      "{\"type\":\"eval\",\"t_s\":1,\"i\":0}\n"
      "{\"type\":\"eval\",\"t_s\":2,\"i\":1}\n";
  {
    std::istringstream in(good + "{\"type\":\"eval\",\"t_s\":3,\"i\":");
    std::string warning;
    const auto loaded = TraceSink::load_jsonl_lenient(in, &warning);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[1].get_int("i"), 1);
    EXPECT_NE(warning.find("truncated"), std::string::npos);
  }
  {
    // Corruption *before* the final line is not forgiven: silently
    // skipping interior records would misreport the session.
    std::istringstream in("garbage\n" + good);
    EXPECT_THROW(TraceSink::load_jsonl_lenient(in), Error);
  }
  {
    // A clean file loads without a warning.
    std::istringstream in(good);
    std::string warning;
    const auto loaded = TraceSink::load_jsonl_lenient(in, &warning);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_TRUE(warning.empty());
  }
}

TEST(TraceSink, LenientFileLoadMatchesStreamBehaviour) {
  const std::string path = ::testing::TempDir() + "/trace_torn.jsonl";
  std::ofstream out(path, std::ios::trunc);
  out << "{\"type\":\"eval\",\"t_s\":1,\"i\":7}\n"
      << "{\"type\":\"eval\",\"t_s\":2,\"i\":8}";  // no terminating newline...
  out.close();
  // ... but a complete record: a final line missing only its newline parses.
  std::string warning;
  auto loaded = TraceSink::load_jsonl_file_lenient(path, &warning);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(warning.empty());

  std::ofstream torn(path, std::ios::app);
  torn << "\n{\"type\":\"ev";
  torn.close();
  loaded = TraceSink::load_jsonl_file_lenient(path, &warning);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_FALSE(warning.empty());
}

// ---- schema validation -------------------------------------------------------

TEST(TraceSchema, ValidEventPasses) {
  const TraceEvent ok = TraceEvent("baseline").with("objective_ms", 100.0);
  EXPECT_EQ(validate_trace_event(ok), "");
  // The counter snapshot older builds wrote as a session's last line.
  EXPECT_EQ(validate_trace_event(
                TraceEvent("metrics").with("c.tuner.evaluations", std::int64_t{70})),
            "");
  // Crashed baselines carry inf, serialized as a string: still a number.
  const TraceEvent inf_ok =
      TraceEvent("baseline").with("objective_ms", std::string("inf"));
  EXPECT_EQ(validate_trace_event(inf_ok), "");
}

TEST(TraceSchema, MissingFieldAndWrongTypeRejected) {
  EXPECT_NE(validate_trace_event(TraceEvent("baseline")), "");
  const TraceEvent wrong =
      TraceEvent("baseline").with("objective_ms", std::string("fast"));
  EXPECT_NE(validate_trace_event(wrong), "");
  EXPECT_NE(validate_trace_event(TraceEvent("not_a_type")), "");
}

// ---- number codec ------------------------------------------------------------
//
// Journals, stores and traces render doubles with std::to_chars and read
// numbers with std::from_chars; both must be byte- and bit-identical to the
// printf/strtod pair they replaced, or a reader would decode old files
// differently.

std::string printf_17g(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::vector<double> special_doubles() {
  using L = std::numeric_limits<double>;
  return {0.0,          -0.0,         L::denorm_min(), -L::denorm_min(),
          L::min(),     -L::min(),    std::nextafter(L::min(), 0.0),
          L::max(),     -L::max(),    L::infinity(),  -L::infinity(),
          L::quiet_NaN(), -L::quiet_NaN(), 1.0,       0.1,
          1e21,         1e-7,         123456789012345680.0};
}

/// strtod over a space-separated stream, the reference for
/// journal_parse_doubles.
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

TEST(NumberCodec, AppendDoubleWritesPrintfBytes) {
  for (const double v : special_doubles()) {
    std::string out;
    append_double(out, v);
    EXPECT_EQ(out, printf_17g(v)) << std::hex << bits(v);
  }
  Rng rng(0x746f5f6368617273ULL);  // "to_chars"
  constexpr int kPatterns = 1 << 20;
  int mismatches = 0;
  std::string out;
  for (int i = 0; i < kPatterns; ++i) {
    const double v = std::bit_cast<double>(rng.next_u64());
    out.clear();
    append_double(out, v);
    if (out != printf_17g(v) && ++mismatches <= 5) {
      ADD_FAILURE() << std::hex << bits(v) << ": " << out << " vs "
                    << printf_17g(v);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(NumberCodec, DecodersReadWhatTheCLibraryReads) {
  const std::vector<std::string> texts = {
      "+5", "-0", ".5", "1e", "1e+308", "4.9e-324", "0x1p3", " 7", "inf",
      "-nan", "nan(123)", "", "-", "1e999", "1e-400", "12abc", "0x",
      "9223372036854775807", "9223372036854775808", "-9223372036854775809",
      "18446744073709551616", "0x0123456789abcdef", "ffffffffffffffff",
      "-1", "1.5 2.5", "1.5\t2"};
  for (const std::string& text : texts) {
    EXPECT_EQ(bits(decode_double(text)), bits(std::strtod(text.c_str(), nullptr)))
        << "'" << text << "'";
    EXPECT_EQ(decode_int(text), std::strtoll(text.c_str(), nullptr, 10))
        << "'" << text << "'";
    for (const int base : {10, 16}) {
      char* end = nullptr;
      const std::uint64_t expected = std::strtoull(text.c_str(), &end, base);
      std::size_t consumed = 0;
      EXPECT_EQ(decode_uint(text, base, &consumed), expected)
          << "'" << text << "' base " << base;
      EXPECT_EQ(consumed, static_cast<std::size_t>(end - text.c_str()))
          << "'" << text << "' base " << base;
    }
    const std::vector<double> stream = journal_parse_doubles(text);
    const std::vector<double> expected = strtod_stream(text);
    ASSERT_EQ(stream.size(), expected.size()) << "'" << text << "'";
    for (std::size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(bits(stream[i]), bits(expected[i])) << "'" << text << "'";
    }
  }

  // Writer output: every double journal_render_doubles can emit, and every
  // integer std::to_string can.
  std::vector<double> values = special_doubles();
  Rng rng(0x66726f6d5f636873ULL);  // "from_chs"
  for (int i = 0; i < (1 << 20); ++i) {
    values.push_back(std::bit_cast<double>(rng.next_u64()));
  }
  int mismatches = 0;
  for (const double v : values) {
    const std::string text = printf_17g(v);
    const double expected = std::strtod(text.c_str(), nullptr);
    if (bits(decode_double(text)) != bits(expected) && ++mismatches <= 5) {
      ADD_FAILURE() << text;
    }
    if (!std::isnan(v) && bits(expected) != bits(v) && ++mismatches <= 5) {
      ADD_FAILURE() << text << " does not round-trip";
    }
    const auto i = static_cast<std::int64_t>(rng.next_u64());
    if (decode_int(std::to_string(i)) != i && ++mismatches <= 5) {
      ADD_FAILURE() << i;
    }
  }
  EXPECT_EQ(mismatches, 0);
  const std::vector<double> head(values.begin(), values.begin() + 4096);
  const std::string stream = journal_render_doubles(head);
  const std::vector<double> decoded = journal_parse_doubles(stream);
  const std::vector<double> expected = strtod_stream(stream);
  ASSERT_EQ(decoded.size(), expected.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(bits(decoded[i]), bits(expected[i])) << i;
  }
}

// ---- full-session traces -----------------------------------------------------

WorkloadSpec trace_workload() {
  WorkloadSpec w;
  w.name = "trace-test";
  w.total_work = 500;
  w.startup_work = 100;
  w.startup_classes = 1500;
  w.alloc_rate = 600 * 1024;
  w.method_count = 3000;
  w.noise_sigma = 0.01;
  return w;
}

class TraceSession : public ::testing::Test {
 protected:
  TraceSession() { set_log_level(LogLevel::kWarn); }
  JvmSimulator sim_;
};

// Every event a real session emits — through fault injection and the
// resilience layer, which exercise the retry/quarantine/breaker event
// types — validates against the documented schema.
TEST_F(TraceSession, EveryEmittedEventMatchesTheSchema) {
  TraceSink trace;
  SessionOptions options;
  // Budget large enough that the hierarchical tuner affords its structural
  // phase (it skips structural exploration on short budgets).
  options.budget = SimTime::minutes(150);
  options.repetitions = 2;
  options.seed = 99;
  options.trace = &trace;
  options.fault_injection.transient_rate = 0.2;
  options.fault_injection.deterministic_rate = 0.1;
  options.resilient = true;
  TuningSession session(sim_, trace_workload(), options);
  HierarchicalTuner tuner;
  (void)session.run(tuner);

  ASSERT_GT(trace.size(), 0u);
  for (const TraceEvent& e : trace.events()) {
    EXPECT_EQ(validate_trace_event(e), "") << to_json(e);
  }
  // The hostile harness makes the resilience event types appear.
  EXPECT_FALSE(trace.events_of("retry").empty());
  EXPECT_FALSE(trace.events_of("quarantine").empty());
  // The hierarchical tuner narrates its structure.
  EXPECT_FALSE(trace.events_of("structural_choice").empty());
  EXPECT_FALSE(trace.events_of("line_search").empty());
  EXPECT_FALSE(trace.events_of("incumbent").empty());
  // Exactly one of each session-level marker.
  EXPECT_EQ(trace.events_of("session_start").size(), 1u);
  EXPECT_EQ(trace.events_of("baseline").size(), 1u);
  EXPECT_EQ(trace.events_of("validation").size(), 1u);
  EXPECT_EQ(trace.events_of("session_end").size(), 1u);
  // session_end is the last line: no metrics snapshot follows it.
  EXPECT_TRUE(trace.events_of("metrics").empty());
  EXPECT_EQ(trace.events().back().type, "session_end");
}

// The headline guarantee: analyze_trace on the session's events reproduces
// the TuningOutcome numbers exactly — no ResultDb access needed.
TEST_F(TraceSession, TraceReplayReproducesTheOutcome) {
  TraceSink trace;
  SessionOptions options;
  options.budget = SimTime::minutes(20);
  options.repetitions = 2;
  options.seed = 2015;
  options.trace = &trace;
  TuningSession session(sim_, trace_workload(), options);
  HierarchicalTuner tuner;
  const TuningOutcome outcome = session.run(tuner);

  const std::vector<SessionTrace> sessions = analyze_trace(trace.events());
  ASSERT_EQ(sessions.size(), 1u);
  const SessionTrace& st = sessions[0];
  EXPECT_TRUE(st.complete);
  EXPECT_EQ(st.workload, outcome.workload_name);
  EXPECT_EQ(st.tuner, outcome.tuner_name);
  EXPECT_EQ(st.evaluations, outcome.evaluations);
  EXPECT_EQ(st.runs, outcome.runs);
  EXPECT_EQ(st.cache_hits, outcome.cache_hits);
  // In process, every cache hit is also an event: the count from
  // session_end is the one the events give.
  EXPECT_EQ(st.cache_hits,
            static_cast<std::int64_t>(trace.events_of("cache_hit").size()));
  EXPECT_DOUBLE_EQ(st.default_ms, outcome.default_ms);
  EXPECT_DOUBLE_EQ(st.best_ms, outcome.best_ms);
  EXPECT_DOUBLE_EQ(st.improvement, outcome.improvement_frac());
  EXPECT_NEAR(st.budget_spent.as_seconds(), outcome.budget_spent.as_seconds(),
              1e-6);

  // The convergence staircase matches the ResultDb trajectory at every
  // checkpoint (the serial session records both from the same positions).
  for (int i = 1; i <= 10; ++i) {
    const SimTime at = outcome.budget_spent * (i / 10.0);
    const double from_trace = st.best_at(at);
    const double from_db = outcome.db->best_at(at);
    if (std::isfinite(from_db)) {
      EXPECT_DOUBLE_EQ(from_trace, from_db) << "checkpoint " << i;
    } else {
      EXPECT_FALSE(std::isfinite(from_trace)) << "checkpoint " << i;
    }
  }

  // Phase budget attribution is exhaustive: per-phase evals and budget sum
  // to the session totals.
  std::int64_t phase_evals = 0;
  SimTime phase_budget = SimTime::zero();
  for (const PhaseBudget& p : st.phase_budgets) {
    phase_evals += p.evaluations;
    phase_budget += p.spent;
  }
  EXPECT_EQ(phase_evals, st.evaluations);
  EXPECT_GT(st.phase_budgets.size(), 1u);  // default + tuner phases

  // And the whole thing survives a JSONL round trip.
  const std::string path = ::testing::TempDir() + "/session_trace.jsonl";
  ASSERT_TRUE(trace.save_jsonl(path));
  const auto reloaded =
      analyze_trace(TraceSink::load_jsonl_file_lenient(path));
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded[0].evaluations, st.evaluations);
  EXPECT_DOUBLE_EQ(reloaded[0].best_ms, st.best_ms);
  EXPECT_DOUBLE_EQ(reloaded[0].default_ms, st.default_ms);
  EXPECT_EQ(reloaded[0].convergence.size(), st.convergence.size());
  for (std::size_t i = 0; i < st.convergence.size(); ++i) {
    EXPECT_EQ(reloaded[0].convergence[i].first, st.convergence[i].first);
    EXPECT_DOUBLE_EQ(reloaded[0].convergence[i].second,
                     st.convergence[i].second);
  }

  // render smoke: the report names the session and its phases.
  const std::string report = render_trace_report(reloaded);
  EXPECT_NE(report.find("trace-test"), std::string::npos);
  EXPECT_NE(report.find("hierarchical"), std::string::npos);
  EXPECT_NE(report.find("per-phase budget attribution"), std::string::npos);
}

// Suite members answer repeats from their runners' caches without a
// cache_hit event, so the report reads the count from session_end; a trace
// cut before session_end still counts events.
TEST_F(TraceSession, SuiteCacheHitsComeFromSessionEnd) {
  TraceSink trace;
  SessionOptions options;
  options.budget = SimTime::minutes(60);
  options.seed = 7;
  options.trace = &trace;
  SuiteTuningSession session(sim_, specjvm2008_startup(), options);
  HierarchicalTuner tuner;
  (void)session.run(tuner);

  const std::vector<SessionTrace> sessions = analyze_trace(trace.events());
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].cache_hits, 16);
  EXPECT_NE(render_trace_report(sessions).find("(16 cache hits"),
            std::string::npos);

  std::vector<TraceEvent> cut = trace.events();
  std::erase_if(cut, [](const TraceEvent& e) { return e.type == "session_end"; });
  const std::vector<SessionTrace> partial = analyze_trace(cut);
  ASSERT_EQ(partial.size(), 1u);
  EXPECT_FALSE(partial[0].complete);
  EXPECT_EQ(partial[0].cache_hits,
            static_cast<std::int64_t>(trace.events_of("cache_hit").size()));
}

// Two sessions in one sink split cleanly on session_start boundaries.
TEST_F(TraceSession, MultipleSessionsSplit) {
  TraceSink trace;
  SessionOptions options;
  options.budget = SimTime::minutes(6);
  options.repetitions = 1;
  options.trace = &trace;
  TuningSession session(sim_, trace_workload(), options);
  RandomSearch t1(0.15);
  HillClimber t2;
  (void)session.run(t1);
  (void)session.run(t2);
  const auto sessions = analyze_trace(trace.events());
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].tuner, "random");
  EXPECT_EQ(sessions[1].tuner, "hillclimb");
  EXPECT_TRUE(sessions[0].complete);
  EXPECT_TRUE(sessions[1].complete);
}

}  // namespace
}  // namespace jat
