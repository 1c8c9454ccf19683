// Observability-layer tests: JSON writer correctness (escaping, ordering,
// number formatting), chrome://tracing export determinism, counter/timer/
// gauge aggregation invariance under ParallelTrialRunner at 1/2/8 workers,
// and the RunReport document shape.
//
// The aggregation tests are the contract the bench layer relies on: merged
// totals must not depend on how many workers carried the increments.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace nocmap::obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonValue::escape("plain"), "plain");
  EXPECT_EQ(JsonValue::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonValue::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonValue::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonValue::escape("\b\f"), "\\b\\f");
  EXPECT_EQ(JsonValue::escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonValue::escape(std::string(1, '\x1f')), "\\u001f");
  // UTF-8 multibyte sequences pass through untouched.
  EXPECT_EQ(JsonValue::escape("na\xc3\xafve"), "na\xc3\xafve");
}

TEST(Json, DumpRoundTripsEscapedStrings) {
  JsonValue doc = JsonValue::object();
  doc["k\"ey"] = JsonValue("va\nlue");
  EXPECT_EQ(doc.dump(0), "{\"k\\\"ey\":\"va\\nlue\"}");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  JsonValue doc = JsonValue::object();
  doc["zebra"] = JsonValue(1);
  doc["apple"] = JsonValue(2);
  doc["mango"] = JsonValue(3);
  const std::string s = doc.dump(0);
  EXPECT_LT(s.find("zebra"), s.find("apple"));
  EXPECT_LT(s.find("apple"), s.find("mango"));
}

TEST(Json, IntegersPrintExactlyAndDoublesDistinctly) {
  JsonValue doc = JsonValue::object();
  doc["count"] = JsonValue(std::uint64_t{42});
  doc["negative"] = JsonValue(std::int64_t{-7});
  doc["ratio"] = JsonValue(0.5);
  const std::string s = doc.dump(0);
  EXPECT_NE(s.find("\"count\":42"), std::string::npos) << s;
  EXPECT_NE(s.find("\"negative\":-7"), std::string::npos) << s;
  EXPECT_NE(s.find("\"ratio\":0.5"), std::string::npos) << s;
  EXPECT_EQ(s.find("42.0"), std::string::npos) << s;
}

TEST(Json, DottedPathCreatesNestedObjects) {
  JsonValue doc = JsonValue::object();
  doc.at_path("a.b.c") = JsonValue(1);
  doc.at_path("a.b.d") = JsonValue(2);
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  const JsonValue* b = a->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->find("c"), nullptr);
  ASSERT_NE(b->find("d"), nullptr);
  EXPECT_EQ(b->size(), 2u);
}

TEST(Json, ArraysAppendInOrder) {
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue(1));
  arr.push_back(JsonValue(2));
  EXPECT_EQ(arr.dump(0), "[1,2]");
}

// ------------------------------------------------------------- JSON parser

TEST(JsonParse, ReadsEveryValueKind) {
  const JsonValue doc = JsonValue::parse(
      R"({"n":null,"t":true,"f":false,"i":-3,"u":18446744073709551615,)"
      R"("d":1.5,"s":"hi","a":[1,2],"o":{"k":"v"}})");
  EXPECT_TRUE(doc.find("n")->is_null());
  EXPECT_TRUE(doc.find("t")->as_bool());
  EXPECT_FALSE(doc.find("f")->as_bool());
  EXPECT_EQ(doc.find("i")->as_double(), -3.0);
  EXPECT_EQ(doc.find("u")->as_uint(), 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(doc.find("d")->as_double(), 1.5);
  EXPECT_EQ(doc.find("s")->as_string(), "hi");
  EXPECT_EQ(doc.find("a")->size(), 2u);
  EXPECT_EQ(doc.find("o")->find("k")->as_string(), "v");
}

TEST(JsonParse, RoundTripsThroughDump) {
  JsonValue doc = JsonValue::object();
  doc["name"] = "sweep \"x\"\n";
  doc["count"] = std::uint64_t{42};
  doc["scale"] = 0.1;
  doc["flags"] = JsonValue::array();
  doc["flags"].push_back(true);
  doc["flags"].push_back(JsonValue());
  for (const int indent : {0, 2}) {
    const JsonValue reparsed = JsonValue::parse(doc.dump(indent));
    EXPECT_EQ(reparsed.dump(0), doc.dump(0)) << "indent " << indent;
  }
}

TEST(JsonParse, DecodesUnicodeEscapesIncludingSurrogatePairs) {
  const JsonValue doc = JsonValue::parse(R"(["Aé", "😀"])");
  EXPECT_EQ(doc.items()[0].as_string(), "A\xc3\xa9");
  EXPECT_EQ(doc.items()[1].as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedDocumentsWithByteOffsets) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "01", "truth",
        "\"unterminated", "[1] trailing", "{\"a\":1,\"a\":2}"}) {
    EXPECT_THROW((void)JsonValue::parse(bad), Error) << bad;
  }
  try {
    (void)JsonValue::parse("{\"a\": nope}");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParse, RejectsRunawayNesting) {
  const std::string deep(100, '[');
  EXPECT_THROW((void)JsonValue::parse(deep), Error);
}

TEST(JsonParse, TypedAccessorsEnforceTypes) {
  const JsonValue doc = JsonValue::parse(R"({"s":"x","neg":-1})");
  EXPECT_THROW((void)doc.find("s")->as_uint(), Error);
  EXPECT_THROW((void)doc.find("neg")->as_uint(), Error);
  EXPECT_THROW((void)doc.find("s")->as_bool(), Error);
  EXPECT_DOUBLE_EQ(doc.find("neg")->as_double(), -1.0);
}

// ---------------------------------------------------------------- Trace

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_trace();
    enable_tracing();
  }
  void TearDown() override {
    disable_tracing();
    clear_trace();
  }
};

std::string dump_trace() {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

TEST_F(TraceTest, EventsSerializeSortedByStartTime) {
  // Emit deliberately out of order; the exporter must sort by start time.
  trace_emit("late", 3'000'000'000ull, 1000);
  trace_emit("early", 1'000'000'000ull, 1000);
  trace_emit("middle", 2'000'000'000ull, 1000);
  const std::string s = dump_trace();
  EXPECT_LT(s.find("early"), s.find("middle"));
  EXPECT_LT(s.find("middle"), s.find("late"));
}

TEST_F(TraceTest, SerializationIsDeterministic) {
  trace_emit("b", 500, 10);
  trace_emit("a", 500, 10);
  const std::string first = dump_trace();
  EXPECT_EQ(first, dump_trace());
  // Equal start time: ties broken by (tid, name) — same thread, so by name.
  EXPECT_LT(first.find("\"a\""), first.find("\"b\""));
}

TEST_F(TraceTest, EventNamesAreEscaped) {
  trace_emit("odd\"name\n", 1'000'000'000ull, 42);
  const std::string s = dump_trace();
  EXPECT_NE(s.find("odd\\\"name\\n"), std::string::npos) << s;
  EXPECT_EQ(s.find("odd\"name\n"), std::string::npos);
}

TEST_F(TraceTest, DocumentParsesAsTraceEventFormat) {
  trace_emit("span", 2'000'000'000ull, 5000);
  const std::string s = dump_trace();
  // Structural markers of the Trace Event Format.
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(s.find("\"cat\": \"nocmap\""), std::string::npos);
  EXPECT_NE(s.find("\"pid\": 1"), std::string::npos);
}

TEST_F(TraceTest, DisabledTracingDropsEvents) {
  disable_tracing();
  const std::size_t before = trace_event_count();
  trace_emit("ignored", 123, 456);
  EXPECT_EQ(trace_event_count(), before);
}

TEST_F(TraceTest, ThreadsGetDistinctTids) {
  trace_emit("main-span", 1'000'000'000ull, 10);
  std::thread other([] { trace_emit("worker-span", 1'000'000'000ull, 10); });
  other.join();
  EXPECT_EQ(trace_event_count(), 2u);
  const std::string s = dump_trace();
  EXPECT_NE(s.find("main-span"), std::string::npos);
  EXPECT_NE(s.find("worker-span"), std::string::npos);
}

// ---------------------------------------------------------------- Metrics

const MetricRow* find_row(const std::vector<MetricRow>& rows,
                          const std::string& name) {
  const auto it = std::find_if(rows.begin(), rows.end(),
                               [&](const MetricRow& r) {
                                 return r.name == name;
                               });
  return it == rows.end() ? nullptr : &*it;
}

/// Counter totals must be invariant in the worker count: N increments of
/// known weights always merge to the same sum.
class MetricAggregation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MetricAggregation, CounterTotalsAreWorkerCountInvariant) {
  if (!compiled_in()) GTEST_SKIP() << "built with NOCMAP_OBS=OFF";
  reset();
  static const Counter counter("test.obs.pool_counter");
  constexpr std::size_t kItems = 1000;

  ParallelTrialRunner runner(ParallelConfig{GetParam()});
  runner.for_each(kItems, [&](std::size_t i) { counter.add(i); });

  const std::vector<MetricRow> rows = snapshot();
  const MetricRow* row = find_row(rows, "test.obs.pool_counter");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->kind, MetricKind::kCounter);
  // sum 0..999 = 999*1000/2, independent of how workers split the range.
  EXPECT_EQ(row->count, 499500u);
}

TEST_P(MetricAggregation, TimerSpanCountsAreWorkerCountInvariant) {
  if (!compiled_in()) GTEST_SKIP() << "built with NOCMAP_OBS=OFF";
  reset();
  static const Timer timer("test.obs.pool_timer");
  constexpr std::size_t kItems = 64;

  ParallelTrialRunner runner(ParallelConfig{GetParam()});
  runner.for_each(kItems, [&](std::size_t i) { timer.record_ns(i * 10, 1); });

  const std::vector<MetricRow> rows = snapshot();
  const MetricRow* row = find_row(rows, "test.obs.pool_timer");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->kind, MetricKind::kTimer);
  EXPECT_EQ(row->count, kItems);
  EXPECT_EQ(row->total_ns, 10u * (kItems * (kItems - 1) / 2));
}

TEST_P(MetricAggregation, GaugeMergesByMaximumAcrossWorkers) {
  if (!compiled_in()) GTEST_SKIP() << "built with NOCMAP_OBS=OFF";
  reset();
  static const Gauge gauge("test.obs.pool_gauge");
  constexpr std::size_t kItems = 100;

  ParallelTrialRunner runner(ParallelConfig{GetParam()});
  runner.for_each(kItems, [&](std::size_t i) {
    gauge.set_max(static_cast<double>(i));
  });

  const std::vector<MetricRow> rows = snapshot();
  const MetricRow* row = find_row(rows, "test.obs.pool_gauge");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->kind, MetricKind::kGauge);
  EXPECT_EQ(row->count, kItems);  // set calls
  EXPECT_DOUBLE_EQ(row->value, static_cast<double>(kItems - 1));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, MetricAggregation,
                         ::testing::Values(1, 2, 8));

TEST(Metrics, ExitedThreadsFoldIntoRetiredTotals) {
  if (!compiled_in()) GTEST_SKIP() << "built with NOCMAP_OBS=OFF";
  reset();
  static const Counter counter("test.obs.retired_counter");
  counter.add(5);
  std::thread t([] { counter.add(7); });
  t.join();  // the worker's sink retires; its total must survive
  const std::vector<MetricRow> rows = snapshot();
  const MetricRow* row = find_row(rows, "test.obs.retired_counter");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 12u);
}

TEST(Metrics, SnapshotIsSortedByName) {
  if (!compiled_in()) GTEST_SKIP() << "built with NOCMAP_OBS=OFF";
  // Register in anti-alphabetical order; the snapshot must still sort.
  static const Counter z("test.obs.zz_sort_probe");
  static const Counter a("test.obs.aa_sort_probe");
  const std::vector<MetricRow> rows = snapshot();
  ASSERT_GE(rows.size(), 2u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].name, rows[i].name);
  }
}

TEST(Metrics, ResetZeroesLiveAndRetiredSinks) {
  if (!compiled_in()) GTEST_SKIP() << "built with NOCMAP_OBS=OFF";
  static const Counter counter("test.obs.reset_counter");
  counter.add(3);
  std::thread t([] { counter.add(4); });
  t.join();
  reset();
  const std::vector<MetricRow> rows = snapshot();
  const MetricRow* row = find_row(rows, "test.obs.reset_counter");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 0u);
}

// ---------------------------------------------------------------- RunReport

TEST(RunReport, CarriesSchemaBinaryAndFields) {
  RunReport report("test_binary");
  report.set("setup.mesh", JsonValue("8x8"));
  report.set("threads", JsonValue(std::uint64_t{4}));
  report.note_artifact("bench_results/foo.csv");

  const std::string s = report.root().dump(2);
  EXPECT_NE(s.find("\"schema\": \"nocmap.run_report/1\""), std::string::npos)
      << s;
  EXPECT_NE(s.find("\"binary\": \"test_binary\""), std::string::npos);
  EXPECT_NE(s.find("\"mesh\": \"8x8\""), std::string::npos);
  EXPECT_NE(s.find("bench_results/foo.csv"), std::string::npos);
}

TEST(RunReport, AttachMetricsEmitsCountersTimersGauges) {
  if (compiled_in()) {
    reset();
    static const Counter counter("test.obs.report_counter");
    static const Timer timer("test.obs.report_timer");
    counter.add(9);
    timer.record_ns(2'000'000, 1);  // 2 ms
  }
  RunReport report("test_binary");
  report.attach_metrics();
  const JsonValue& root = report.root();
  ASSERT_NE(root.find("counters"), nullptr);
  ASSERT_NE(root.find("timers"), nullptr);
  ASSERT_NE(root.find("gauges"), nullptr);
  if (compiled_in()) {
    const JsonValue* counters = root.find("counters");
    ASSERT_NE(counters->find("test.obs.report_counter"), nullptr);
    const JsonValue* timers = root.find("timers");
    const JsonValue* t = timers->find("test.obs.report_timer");
    ASSERT_NE(t, nullptr);
    ASSERT_NE(t->find("total_ms"), nullptr);
    ASSERT_NE(t->find("count"), nullptr);
  }
}

TEST(RunReport, SaveBaselineKeepsOnlyTheNamedSections) {
  RunReport report("test_binary");
  report.set("title", JsonValue("not in the baseline"));
  report.set("wall_ms", 12.5);
  report.set("netsim.w1.run_ms", 3.25);
  report.set("netsim.mesh64_speedup_w8", 1.5);
  report.set("eval.batch.k8.ns_per_candidate", 7.0);
  report.set("service.run_ms", 9.0);
  report.note_artifact("bench_results/foo.csv");
  report.attach_metrics();

  const std::string path = ::testing::TempDir() + "/nocmap_baseline.json";
  ASSERT_TRUE(report.save_baseline(path, {"netsim", "service"}));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  const JsonValue doc = JsonValue::parse(text.str());

  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"schema", "binary", "fingerprint",
                                            "netsim", "service"}));
  EXPECT_EQ(doc.find("schema")->as_string(), kRunReportSchema);
  EXPECT_EQ(doc.find("binary")->as_string(), "test_binary");
  const JsonValue* fingerprint = doc.find("fingerprint");
  EXPECT_EQ(fingerprint->find("hw_threads")->as_uint(),
            std::thread::hardware_concurrency());
  EXPECT_FALSE(fingerprint->find("compiler")->as_string().empty());
#ifdef NDEBUG
  EXPECT_FALSE(fingerprint->find("asserts")->as_bool());
#else
  EXPECT_TRUE(fingerprint->find("asserts")->as_bool());
#endif
  EXPECT_EQ(doc.find("netsim")->dump(0),
            R"({"w1":{"run_ms":3.25},"mesh64_speedup_w8":1.5})");
  EXPECT_EQ(doc.find("service")->dump(0), R"({"run_ms":9})");

  EXPECT_THROW(report.save_baseline(path, {"absent"}), Error);
}

TEST(RunReport, ScopedTimerFeedsTimerAndTrace) {
  if (!compiled_in()) GTEST_SKIP() << "built with NOCMAP_OBS=OFF";
  reset();
  clear_trace();
  enable_tracing();
  static const Timer timer("test.obs.scoped_timer");
  { const ScopedTimer scope(timer); }
  disable_tracing();

  const std::vector<MetricRow> rows = snapshot();
  const MetricRow* row = find_row(rows, "test.obs.scoped_timer");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 1u);
  EXPECT_EQ(trace_event_count(), 1u);
  clear_trace();
}

}  // namespace
}  // namespace nocmap::obs
