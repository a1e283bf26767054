// Tests for the bench harness (bench/bench_util.hpp): the baseline reader
// the CI regression gates use on the committed BENCH_*.json files, and the
// JSON writer every bench's output goes through.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "bench_util.hpp"

namespace gb = genio::bench;

namespace {

std::string committed(const char* name) { return std::string(GENIO_SOURCE_DIR "/") + name; }

double number(const gb::Baseline& baseline, const std::string& key) {
  const auto n = baseline.number(key);
  EXPECT_TRUE(n.ok()) << key;
  return n.value_or(-1.0);
}

}  // namespace

TEST(BenchBaseline, ReadsTheGatedNumbersOfTheCommittedDesBaseline) {
  const auto baseline = gb::Baseline::load(committed("BENCH_des.json"));
  ASSERT_TRUE(baseline.ok()) << baseline.error().to_string();
  EXPECT_DOUBLE_EQ(number(*baseline, "scheduler.heap_eps"), 1735252.4);
  EXPECT_DOUBLE_EQ(number(*baseline, "carrier.carrier_eps"), 154760.8);
  EXPECT_DOUBLE_EQ(number(*baseline, "sharded.modeled[3].workers"), 8);
}

TEST(BenchBaseline, ReadsEverySizeBlockOfTheCommittedDataplaneBaseline) {
  const auto baseline = gb::Baseline::load(committed("BENCH_dataplane.json"));
  ASSERT_TRUE(baseline.ok()) << baseline.error().to_string();
  const double sizes[] = {64, 256, 1024, 4096, 9000};
  for (int i = 0; i < 5; ++i) {
    const std::string block = "sizes[" + std::to_string(i) + "]";
    EXPECT_DOUBLE_EQ(number(*baseline, block + ".payload_bytes"), sizes[i]);
    for (const char* path : {".seal", ".open", ".crc"}) {
      EXPECT_GT(number(*baseline, block + path + ".fast_MBps"), 0.0) << block << path;
    }
  }
  EXPECT_DOUBLE_EQ(number(*baseline, "sizes[0].seal.fast_MBps"), 70.03);
  EXPECT_DOUBLE_EQ(number(*baseline, "sizes[2].crc.fast_MBps"), 1895.50);
  EXPECT_DOUBLE_EQ(number(*baseline, "sizes[4].open.fast_MBps"), 130.43);
  EXPECT_FALSE(baseline->number("sizes[5].payload_bytes").ok());
}

TEST(BenchBaseline, MissingKeysAndUnreadableFilesAreErrors) {
  const auto baseline = gb::Baseline::parse(R"({"scheduler": {"events": 3}})", "des.json");
  ASSERT_TRUE(baseline.ok());
  const auto missing = baseline->number("scheduler.heap_eps");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().message(), "baseline des.json missing key scheduler.heap_eps");
  EXPECT_FALSE(
      gb::within_baseline(baseline, "scheduler.heap_eps", 1e9, "heap_eps", "events/sec", 0));
  EXPECT_FALSE(gb::Baseline::load(committed("no-such-baseline.json")).ok());
  EXPECT_FALSE(gb::Baseline::parse(R"({"a": 1,})", "bad.json").ok());
  EXPECT_FALSE(gb::Baseline::parse(R"({"a": 1} trailing)", "bad.json").ok());
  EXPECT_FALSE(gb::Baseline::parse("{\"a\nb\": 1}", "bad.json").ok());  // raw newline
  EXPECT_FALSE(gb::Baseline::parse(R"({"a\qb": 1})", "bad.json").ok());   // bad escape
}

TEST(BenchBaseline, GatesAtEightyPercentOfTheCommittedNumber) {
  const auto baseline = gb::Baseline::parse(R"({"carrier": {"carrier_eps": 100.0}})", "b");
  EXPECT_TRUE(gb::within_baseline(baseline, "carrier.carrier_eps", 80.0, "c", "events/sec", 0));
  EXPECT_FALSE(gb::within_baseline(baseline, "carrier.carrier_eps", 79.9, "c", "events/sec", 0));
}

TEST(BenchJson, EscapesKeysAndValuesAndTheOutputParses) {
  const std::string path = ::testing::TempDir() + "bench_util_test.json";
  const std::string nasty = "q\"uote \\back\nline\ttab\x01" "end";
  {
    gb::Json json(path, "util\"test", true);
    json.field(nasty, 7).field("text", nasty).field("ratio", 0.5, 2);
    json.array("rows").object().field("x", 1).close().object().field("x", 2).close().close();
    json.field("inf", std::numeric_limits<double>::infinity(), 1);
  }
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find(R"("q\"uote \\back\nline\ttab\u0001end": 7)"), std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find(R"("bench": "util\"test")"), std::string::npos);
  EXPECT_NE(text.str().find(R"("inf": null)"), std::string::npos);

  const auto parsed = gb::Baseline::parse(text.str(), path);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string() << "\n" << text.str();
  EXPECT_DOUBLE_EQ(number(*parsed, gb::Json::escape(nasty)), 7);
  EXPECT_DOUBLE_EQ(number(*parsed, "ratio"), 0.5);
  EXPECT_DOUBLE_EQ(number(*parsed, "rows[1].x"), 2);
  EXPECT_TRUE(parsed->number("hardware_concurrency").ok());
}
