#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"
#include "telemetry/histogram.h"
#include "telemetry/report.h"
#include "workload/runner.h"
#include "workload/workload.h"

namespace ddc {
namespace {

TEST(JsonWriterTest, FlatObject) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("burst");
  w.Key("n").Int(200000);
  w.Key("dup").Double(0.3);
  w.Key("timed_out").Bool(false);
  w.Key("nothing").Null();
  w.EndObject();
  EXPECT_EQ(w.str(),
            R"({"name":"burst","n":200000,"dup":0.3,"timed_out":false,)"
            R"("nothing":null})");
}

TEST(JsonWriterTest, NestedContainersAndCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").BeginArray();
  w.Int(1);
  w.BeginArray().EndArray();
  w.BeginObject().Key("b").Int(2).EndObject();
  w.EndArray();
  w.Key("c").BeginObject().EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"a":[1,[],{"b":2}],"c":{}})");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  JsonWriter w;
  w.String("a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

TEST(JsonWriterTest, Utf8PassesThrough) {
  JsonWriter w;
  w.String("ρ-approximate ε=2.5µs");
  EXPECT_EQ(w.str(), "\"ρ-approximate ε=2.5µs\"");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::nan(""));
  w.Double(1.5);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,1.5]");
}

TEST(JsonWriterTest, DoublesRoundTripExactly) {
  for (const double v : {0.1, 1e-300, 123456.789, -2.5e17,
                         0.30000000000000004}) {
    JsonWriter w;
    w.Double(v);
    const auto parsed = JsonParse(w.str());
    ASSERT_TRUE(parsed.has_value()) << w.str();
    EXPECT_EQ(parsed->number_value, v) << w.str();
  }
}

TEST(JsonParseTest, Scalars) {
  EXPECT_EQ(JsonParse("null")->type, JsonValue::Type::kNull);
  EXPECT_TRUE(JsonParse("true")->bool_value);
  EXPECT_FALSE(JsonParse("false")->bool_value);
  EXPECT_DOUBLE_EQ(JsonParse("-12.5e2")->number_value, -1250);
  EXPECT_EQ(JsonParse("\"hi\"")->string_value, "hi");
  EXPECT_EQ(JsonParse("  42 ")->number_value, 42);
}

TEST(JsonParseTest, StringEscapes) {
  const auto v = JsonParse(R"("a\"b\\c\/d\n\t\u0041\u00e9")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string_value, "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(JsonParseTest, SurrogatePairDecodesToUtf8) {
  const auto v = JsonParse(R"("\ud83d\ude00")");  // 😀 U+1F600
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string_value, "\xf0\x9f\x98\x80");
}

TEST(JsonParseTest, ObjectLookupAndOrder) {
  const auto v = JsonParse(R"({"b":1,"a":[true,{"x":"y"}]})");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->members.size(), 2u);
  EXPECT_EQ(v->members[0].first, "b");  // Document order kept.
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 2u);
  EXPECT_EQ(a->items[1].Find("x")->string_value, "y");
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParseTest, MalformedInputsAreRejectedWithError) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "1.2.3", "[1] x",
        "\"unterminated", "\"\\u12g4\"", "\"\\ud83d\"", "{'a':1}",
        "\"raw\ncontrol\""}) {
    std::string error;
    EXPECT_FALSE(JsonParse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonRoundTripTest, WriterOutputParsesBackIdentically) {
  JsonWriter w;
  w.BeginObject();
  w.Key("weird \"key\"\n").String("value\twith\\escapes");
  w.Key("nums").BeginArray().Int(-7).Double(0.25).EndArray();
  w.EndObject();
  const auto v = JsonParse(w.str());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->members[0].first, "weird \"key\"\n");
  EXPECT_EQ(v->Find("weird \"key\"\n")->string_value, "value\twith\\escapes");
  EXPECT_DOUBLE_EQ(v->Find("nums")->items[1].number_value, 0.25);
}

/// A BENCH document rendered from synthetic stats.
std::string SyntheticBenchJson() {
  Workload w;
  w.dim = 2;
  w.num_updates = 10;
  w.num_inserts = 8;
  w.num_deletes = 2;
  RunStats stats;
  stats.ops_executed = 10;
  stats.updates_executed = 10;
  stats.total_seconds = 0.5;
  stats.checkpoint_ops = {5, 10};
  stats.avg_cost_us = {1.0, 2.0};
  stats.max_upd_cost_us = {3.0, 4.0};
  for (int i = 1; i <= 8; ++i) stats.insert_latency_us.Record(i);
  stats.delete_latency_us.Record(2.0);

  BenchRecord record;
  record.scenario = "burst";
  record.scenario_spec = "burst:n=10";
  record.method = "double-approx";
  record.params = DbscanParams{.dim = 2, .eps = 200, .min_pts = 10,
                               .rho = 0.001};
  record.seed = 7;
  record.peak_rss_bytes = 12345;
  record.workload = &w;
  record.stats = &stats;
  return BenchJson(record);
}

TEST(BenchJsonTest, SchemaValidatesAndCarriesLatencies) {
  // An end-to-end BENCH document from synthetic stats must satisfy the same
  // validator ddc_driver runs before writing files.
  const std::string json = SyntheticBenchJson();
  std::string why;
  EXPECT_TRUE(ValidateBenchJson(json, &why)) << why;

  const auto doc = JsonParse(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("schema_version")->number_value, kBenchSchemaVersion);
  EXPECT_EQ(doc->Find("scenario")->string_value, "burst");
  const JsonValue* insert = doc->Find("latency_us")->Find("insert");
  EXPECT_EQ(insert->Find("count")->number_value, 8);
  EXPECT_DOUBLE_EQ(insert->Find("max")->number_value, 8.0);
  // Query histogram is present (schema-stable) even with zero samples.
  EXPECT_EQ(doc->Find("latency_us")->Find("query")->Find("count")
                ->number_value,
            0);
  EXPECT_EQ(doc->Find("checkpoints")->Find("ops")->items.size(), 2u);
  EXPECT_DOUBLE_EQ(doc->Find("run")->Find("throughput_ops_per_sec")
                       ->number_value,
                   20.0);
  // Rendering is pure: the RSS figure is the record's, not a live /proc
  // sample taken inside BenchJson.
  EXPECT_EQ(doc->Find("run")->Find("peak_rss_bytes")->number_value, 12345);
}

TEST(BenchJsonTest, ValidatorRejectsBrokenDocuments) {
  std::string why;
  EXPECT_FALSE(ValidateBenchJson("not json", &why));
  EXPECT_FALSE(ValidateBenchJson("{}", &why));
  EXPECT_FALSE(ValidateBenchJson(R"({"schema_version":99})", &why));
}

// Only the current schema is read: a v2 document is refused even when it
// carries every key of the current one.
TEST(BenchJsonTest, ValidatorRefusesAnEarlierSchemaVersion) {
  std::string json = SyntheticBenchJson();
  const std::string current =
      "\"schema_version\":" + std::to_string(kBenchSchemaVersion);
  const size_t at = json.find(current);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, current.size(), "\"schema_version\":2");
  std::string why;
  EXPECT_FALSE(ValidateBenchJson(json, &why));
  EXPECT_EQ(why, "unexpected schema_version");
}

}  // namespace
}  // namespace ddc
