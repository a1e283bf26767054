// Tests for the bench harness (bench/bench_util.hpp): the reader that turns
// the committed BENCH_*.json files back into numbers, and the JSON writer
// every bench's output goes through.
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

TEST(BenchBaseline, ReadsTheNumbersOfTheCommittedDesBaseline) {
  const auto baseline = gb::Baseline::load(committed("BENCH_des.json"));
  ASSERT_TRUE(baseline.ok()) << baseline.error().to_string();
  EXPECT_DOUBLE_EQ(number(*baseline, "scheduler.queue_eps"), 1981588.9);
  EXPECT_DOUBLE_EQ(number(*baseline, "carrier.carrier_eps"), 171467.6);
  EXPECT_DOUBLE_EQ(number(*baseline, "sharded.modeled[3].workers"), 8);
}

TEST(BenchBaseline, ReadsEverySizeBlockOfTheCommittedDataplaneBaseline) {
  // The per-size blocks are in-process ratios of each hardware backend over
  // kPortable, with their floors; no absolute MB/s is committed. The fused
  // blocks cover 64 B, 1,500 B, 4 KB and 9 KB on each hardware backend.
  const auto baseline = gb::Baseline::load(committed("BENCH_dataplane.json"));
  ASSERT_TRUE(baseline.ok()) << baseline.error().to_string();
  const double sizes[] = {64, 256, 1024, 4096, 9000};
  for (int i = 0; i < 5; ++i) {
    const std::string block = "over_portable[" + std::to_string(i) + "]";
    EXPECT_DOUBLE_EQ(number(*baseline, block + ".payload_bytes"), sizes[i]);
    for (const char* kernel : {".aes_pclmul", ".vaes_avx512"}) {
      for (const char* ratio : {".sealopen_ratio", ".crc_ratio"}) {
        EXPECT_GE(number(*baseline, block + kernel + ratio),
                  number(*baseline, block + kernel + ratio + "_floor"))
            << block << kernel << ratio;
      }
    }
    EXPECT_GT(number(*baseline, block + ".sealopen_ns.portable.median"), 0.0) << block;
    EXPECT_GT(number(*baseline, block + ".sealopen_ns.portable.fastest"), 0.0) << block;
  }
  EXPECT_FALSE(baseline->number("over_portable[5].payload_bytes").ok());
  EXPECT_FALSE(baseline->number("sizes[0].seal.fast_MBps").ok());
  for (int i = 0; i < 8; ++i) {
    const std::string block = "fused[" + std::to_string(i) + "]";
    EXPECT_GE(number(*baseline, block + ".ratio"), number(*baseline, block + ".ratio_floor"))
        << block;
  }
  EXPECT_DOUBLE_EQ(number(*baseline, "fused[1].payload_bytes"), 1500);
  EXPECT_DOUBLE_EQ(number(*baseline, "fused[3].payload_bytes"), 9000);
  EXPECT_FALSE(baseline->number("fused[8].payload_bytes").ok());
  EXPECT_GE(number(*baseline, "hardware_concurrency"), 1);
}

TEST(BenchBaseline, MissingKeysAndUnreadableFilesAreErrors) {
  const auto baseline = gb::Baseline::parse(R"({"scheduler": {"events": 3}})", "des.json");
  ASSERT_TRUE(baseline.ok());
  const auto missing = baseline->number("scheduler.heap_eps");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().message(), "baseline des.json missing key scheduler.heap_eps");
  EXPECT_FALSE(gb::Baseline::load(committed("no-such-baseline.json")).ok());
  EXPECT_FALSE(gb::Baseline::parse(R"({"a": 1,})", "bad.json").ok());
  EXPECT_FALSE(gb::Baseline::parse(R"({"a": 1} trailing)", "bad.json").ok());
  EXPECT_FALSE(gb::Baseline::parse("{\"a\nb\": 1}", "bad.json").ok());  // raw newline
  EXPECT_FALSE(gb::Baseline::parse(R"({"a\qb": 1})", "bad.json").ok());   // bad escape
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
