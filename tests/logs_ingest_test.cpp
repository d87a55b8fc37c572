// Hardened log ingestion: exhaustive CacheStatus serialization coverage,
// per-reason malformed-line accounting, quarantine, the strict/permissive
// modes, the error budget, and header-version rejection.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "logs/csv.h"
#include "logs/record.h"
#include "logs/zerocopy.h"

namespace jsoncdn::logs {
namespace {

// Adding a CacheStatus enumerator must extend the count, the array, and the
// (to_string, parse) pair together; the switch in to_string has no default,
// so the compiler enforces the rest.
static_assert(kCacheStatusCount == 8,
              "update all_cache_statuses/to_string/parse_cache_status and "
              "this test when adding a CacheStatus");

TEST(CacheStatusCoverage, EveryStatusRoundTripsDistinctly) {
  std::vector<std::string> seen;
  for (const auto status : all_cache_statuses()) {
    const auto text = std::string(to_string(status));
    EXPECT_FALSE(text.empty());
    for (const auto& other : seen) EXPECT_NE(text, other);
    seen.push_back(text);

    CacheStatus parsed{};
    ASSERT_TRUE(parse_cache_status(text, parsed)) << text;
    EXPECT_EQ(parsed, status);
  }
  EXPECT_EQ(seen.size(), kCacheStatusCount);

  CacheStatus parsed{};
  EXPECT_FALSE(parse_cache_status("BOGUS", parsed));
  EXPECT_FALSE(parse_cache_status("", parsed));
}

TEST(CacheStatusCoverage, ErrorRecordRoundTripsThroughTsv) {
  LogRecord record;
  record.timestamp = 12.5;
  record.client_id = "abcd";
  record.user_agent = "ua/1.0";
  record.url = "https://api.shop-3.example/cart";
  record.domain = "api.shop-3.example";
  record.content_type = "application/json";
  record.status = 504;
  record.response_bytes = 0;
  record.cache_status = CacheStatus::kError;
  record.edge_id = 2;

  const auto parsed = from_line(to_line(record));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 504);
  EXPECT_EQ(parsed->cache_status, CacheStatus::kError);
  EXPECT_EQ(parsed->url, record.url);

  record.cache_status = CacheStatus::kStale;
  record.status = 200;
  const auto stale = from_line(to_line(record));
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->cache_status, CacheStatus::kStale);
}

TEST(FromLineReasons, EachMalformationNamesItsField) {
  const auto good = to_line(LogRecord{});
  std::string reason;
  ASSERT_TRUE(from_line(good, &reason).has_value());

  // Columns: ts, client, ua, method, url, domain, ctype, status, resp,
  // req, cache_status, edge.
  const auto mutate = [&](std::size_t column, const std::string& value) {
    std::vector<std::string> fields;
    std::istringstream in(good);
    std::string field;
    while (std::getline(in, field, '\t')) fields.push_back(field);
    fields.at(column) = value;
    std::string out = fields[0];
    for (std::size_t i = 1; i < fields.size(); ++i) out += '\t' + fields[i];
    return out;
  };

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"short\tline", "column-count"},
      {mutate(0, "noon"), "bad-timestamp"},
      {mutate(3, "YEET"), "bad-method"},
      {mutate(7, "2xx"), "bad-status"},
      {mutate(8, "-12"), "bad-response-bytes"},
      {mutate(9, "many"), "bad-request-bytes"},
      {mutate(10, "WARM"), "bad-cache-status"},
      {mutate(11, "edge-one"), "bad-edge-id"},
  };
  for (const auto& [line, expected] : cases) {
    std::string got;
    EXPECT_FALSE(from_line(line, &got).has_value()) << line;
    EXPECT_EQ(got, expected) << line;
  }
}

class IngestFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test filename: ctest runs tests as separate parallel processes,
    // and a shared path races (one test's write clobbers another's read).
    path_ = ::testing::TempDir() + "jsoncdn_ingest_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_file(const std::vector<std::string>& lines,
                  bool with_header = true) {
    std::ofstream out(path_);
    if (with_header) out << log_header() << '\n';
    for (const auto& line : lines) out << line << '\n';
  }

  static std::string good_line(double ts) {
    LogRecord record;
    record.timestamp = ts;
    record.client_id = "c";
    record.url = "https://d/x";
    record.domain = "d";
    record.content_type = "application/json";
    return to_line(record);
  }

  std::string path_;
};

TEST_F(IngestFileTest, PermissiveSkipsCountsAndQuarantines) {
  write_file({good_line(1.0), "garbage line", good_line(2.0),
              "another\tbad\trow", good_line(3.0)});

  std::ostringstream quarantined;
  StreamQuarantine sink(quarantined);
  IngestOptions options;
  options.quarantine = &sink;

  IngestReport report;
  const auto dataset = read_log_table(path_, options, &report);

  EXPECT_EQ(dataset.size(), 3u);
  EXPECT_EQ(report.records, 3u);
  EXPECT_EQ(report.malformed, 2u);
  EXPECT_EQ(report.lines, 6u);  // header + 5 data lines
  EXPECT_TRUE(report.header_seen);
  EXPECT_EQ(report.reasons.at("column-count"), 2u);
  EXPECT_NEAR(report.error_share(), 2.0 / 5.0, 1e-12);

  // Quarantine preserved both rows with their 1-based line numbers.
  EXPECT_EQ(sink.count(), 2u);
  const auto text = quarantined.str();
  EXPECT_NE(text.find("3\tcolumn-count\tgarbage line\n"), std::string::npos);
  EXPECT_NE(text.find("5\tcolumn-count\tanother\tbad\trow\n"),
            std::string::npos);

  const auto rendered = render_ingest_report(report);
  EXPECT_NE(rendered.find("column-count"), std::string::npos);
}

TEST_F(IngestFileTest, StrictThrowsNamingTheLine) {
  write_file({good_line(1.0), "garbage line", good_line(2.0)});
  IngestOptions options;
  options.mode = ParseMode::kStrict;
  try {
    (void)read_log_table(path_, options);
    FAIL() << "expected strict mode to throw";
  } catch (const std::runtime_error& e) {
    // Header is line 1, the bad row is line 3.
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("column-count"), std::string::npos)
        << e.what();
  }
}

TEST_F(IngestFileTest, ErrorBudgetAborts) {
  write_file({"bad one", "bad two", "bad three", good_line(1.0)});
  IngestOptions options;
  options.max_malformed = 1;
  EXPECT_THROW((void)read_log_table(path_, options), std::runtime_error);
}

TEST_F(IngestFileTest, UnsupportedHeaderVersionIsFatalEvenPermissive) {
  {
    std::ofstream out(path_);
    out << "#jsoncdn-log-v999\tfuture\tcolumns\n" << good_line(1.0) << '\n';
  }
  EXPECT_THROW((void)read_log_table(path_, IngestOptions{}),
               std::runtime_error);
}

// ---- Oversized rows (adversarial ingest) ----------------------------------
//
// Malformed/oversized JSON traffic leaves multi-megabyte artifacts in real
// edge logs: huge URLs from buffer-stuffing clients, rows that are one giant
// field with no delimiters at all. Ingest must take them in stride — parse
// the valid ones, quarantine the invalid ones whole, and stay linear.

TEST_F(IngestFileTest, MultiMegabyteFieldRoundTrips) {
  LogRecord record;
  record.timestamp = 1.0;
  record.client_id = "c";
  record.url = "https://d/" + std::string(3u << 20, 'a');  // 3 MiB URL
  record.user_agent = std::string(1u << 20, 'u');          // 1 MiB UA
  record.domain = "d";
  record.content_type = "application/json";
  write_file({good_line(0.5), to_line(record), good_line(2.0)});

  IngestReport report;
  const auto dataset = read_log_table(path_, IngestOptions{}, &report);
  ASSERT_EQ(dataset.size(), 3u);
  EXPECT_EQ(report.malformed, 0u);
  EXPECT_EQ(dataset.url(1).size(), record.url.size());
  EXPECT_EQ(dataset.user_agent(1), record.user_agent);

  // Strict mode accepts the same file: oversized is not malformed.
  IngestOptions strict;
  strict.mode = ParseMode::kStrict;
  EXPECT_EQ(read_log_table(path_, strict).size(), 3u);
}

TEST_F(IngestFileTest, OversizedSingleFieldRowQuarantinedWhole) {
  // One giant field, no tabs: the classic garbage row an attacker's broken
  // client writes. 4 MiB of it must cost one malformed count, not a crash.
  const std::string giant(4u << 20, 'x');
  write_file({good_line(1.0), giant, good_line(2.0)});

  std::ostringstream quarantined;
  StreamQuarantine sink(quarantined);
  IngestOptions options;
  options.quarantine = &sink;
  IngestReport report;
  const auto dataset = read_log_table(path_, options, &report);

  EXPECT_EQ(dataset.size(), 2u);
  EXPECT_EQ(report.malformed, 1u);
  EXPECT_EQ(report.reasons.at("column-count"), 1u);
  // The quarantined row is preserved byte-for-byte, giant field included.
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_NE(quarantined.str().find(giant), std::string::npos);

  // Strict mode refuses it, naming the line, without the error budget.
  IngestOptions strict;
  strict.mode = ParseMode::kStrict;
  try {
    (void)read_log_table(path_, strict);
    FAIL() << "expected strict mode to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST_F(IngestFileTest, OversizedRowsIngestLinearly) {
  // 24 rows of ~1 MiB each. A parser that concatenates per character (or
  // re-scans the line per field) would go quadratic in the field size and
  // blow far past this generous wall-clock bound; linear ingest clears it
  // with an order of magnitude to spare even on slow CI.
  std::vector<std::string> lines;
  for (int i = 0; i < 24; ++i) {
    LogRecord record;
    record.timestamp = i;
    record.client_id = "c";
    record.url = "https://d/" + std::string(1u << 20, 'a' + (i % 26));
    record.domain = "d";
    record.content_type = "application/json";
    lines.push_back(to_line(record));
  }
  write_file(lines);

  const auto start = std::chrono::steady_clock::now();
  IngestReport report;
  const auto dataset = read_log_table(path_, IngestOptions{}, &report);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  EXPECT_EQ(dataset.size(), 24u);
  EXPECT_EQ(report.malformed, 0u);
  EXPECT_LT(elapsed.count(), 20'000) << "oversized-row ingest is not linear";
}

TEST_F(IngestFileTest, MissingFileThrows) {
  EXPECT_THROW((void)read_log_table(path_ + ".nope", IngestOptions{}),
               std::runtime_error);
}

TEST(IngestReportMerge, CountersAndReasonsAdd) {
  IngestReport a;
  a.lines = 10;
  a.records = 8;
  a.malformed = 2;
  a.reasons["column-count"] = 2;
  IngestReport b;
  b.lines = 5;
  b.records = 4;
  b.malformed = 1;
  b.header_seen = true;
  b.reasons["bad-status"] = 1;

  a.merge(b);
  EXPECT_EQ(a.lines, 15u);
  EXPECT_EQ(a.records, 12u);
  EXPECT_EQ(a.malformed, 3u);
  EXPECT_TRUE(a.header_seen);
  EXPECT_EQ(a.reasons.at("column-count"), 2u);
  EXPECT_EQ(a.reasons.at("bad-status"), 1u);
}

}  // namespace
}  // namespace jsoncdn::logs
