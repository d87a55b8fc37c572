#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>

#include "logs/anonymizer.h"
#include "logs/csv.h"
#include "logs/record.h"
#include "logs/zerocopy.h"

namespace jsoncdn::logs {
namespace {

LogRecord sample_record() {
  LogRecord r;
  r.timestamp = 1234.5;
  r.client_id = "deadbeef00112233";
  r.user_agent = "NewsReader/5.2.1 (iPhone; iOS 12.4.1)";
  r.method = http::Method::kGet;
  r.url = "https://api.news-000.example/api/v1/stories/1";
  r.domain = "api.news-000.example";
  r.content_type = "application/json; charset=utf-8";
  r.status = 200;
  r.response_bytes = 2048;
  r.request_bytes = 0;
  r.cache_status = CacheStatus::kHit;
  r.edge_id = 2;
  return r;
}

void expect_equal(const LogRecord& a, const LogRecord& b) {
  EXPECT_DOUBLE_EQ(a.timestamp, b.timestamp);
  EXPECT_EQ(a.client_id, b.client_id);
  EXPECT_EQ(a.user_agent, b.user_agent);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.url, b.url);
  EXPECT_EQ(a.domain, b.domain);
  EXPECT_EQ(a.content_type, b.content_type);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.response_bytes, b.response_bytes);
  EXPECT_EQ(a.request_bytes, b.request_bytes);
  EXPECT_EQ(a.cache_status, b.cache_status);
  EXPECT_EQ(a.edge_id, b.edge_id);
}

// Per-test temp path: ctest runs each case as its own process, so a shared
// path would let parallel cases overwrite each other's files.
std::string temp_log_path() {
  return ::testing::TempDir() + "jsoncdn_logs_test_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + std::to_string(::getpid()) + ".log";
}

// Writes `text` to a temp file and loads it through the zero-copy ingest.
LogTable read_back(const std::string& text, IngestReport* report) {
  const auto path = temp_log_path();
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  auto table = read_log_table(path, IngestOptions{}, report);
  std::remove(path.c_str());
  return table;
}

TEST(CacheStatus, RoundTripsAllValues) {
  for (const auto s : {CacheStatus::kHit, CacheStatus::kMiss,
                       CacheStatus::kNotCacheable}) {
    CacheStatus out;
    ASSERT_TRUE(parse_cache_status(to_string(s), out));
    EXPECT_EQ(out, s);
  }
  CacheStatus out;
  EXPECT_FALSE(parse_cache_status("BOGUS", out));
}

TEST(LogLine, RoundTripsTypicalRecord) {
  const auto r = sample_record();
  const auto parsed = from_line(to_line(r));
  ASSERT_TRUE(parsed.has_value());
  expect_equal(*parsed, r);
}

TEST(LogLine, RoundTripsNastyFieldBytes) {
  auto r = sample_record();
  r.user_agent = "evil\tagent\nwith%special\rchars";
  r.url = "https://h/a%20b?x=\t1";
  const auto line = to_line(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto parsed = from_line(line);
  ASSERT_TRUE(parsed.has_value());
  expect_equal(*parsed, r);
}

TEST(LogLine, RoundTripsLiteralPlusUnchanged) {
  // '+' is a legitimate byte in UA strings and URLs; unescape_field must be
  // the exact inverse of the writer's escaping, not form decoding (which
  // would fold '+' to space and break joins against truth-sidecar keys).
  auto r = sample_record();
  r.user_agent = "Scrapy/2.11.0 (+https://scrapy.org)";
  r.url = "https://h/search?q=a+b";
  const auto parsed = from_line(to_line(r));
  ASSERT_TRUE(parsed.has_value());
  expect_equal(*parsed, r);
}

TEST(LogLine, RoundTripsEmptyFields) {
  auto r = sample_record();
  r.user_agent = "";
  r.client_id = "";
  const auto parsed = from_line(to_line(r));
  ASSERT_TRUE(parsed.has_value());
  expect_equal(*parsed, r);
}

TEST(LogLine, RejectsMalformedLines) {
  EXPECT_FALSE(from_line("").has_value());
  EXPECT_FALSE(from_line("only\tthree\tcolumns").has_value());
  auto good = to_line(sample_record());
  EXPECT_FALSE(from_line(good + "\textra").has_value());
  // Corrupt the numeric status column.
  auto bad = good;
  const auto pos = bad.find("\t200\t");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 5, "\tNaN\t");
  EXPECT_FALSE(from_line(bad).has_value());
}

TEST(LogLine, RejectsUnknownMethodOrCacheStatus) {
  auto line = to_line(sample_record());
  auto bad_method = line;
  const auto mpos = bad_method.find("\tGET\t");
  bad_method.replace(mpos, 5, "\tGOT\t");
  EXPECT_FALSE(from_line(bad_method).has_value());
}

TEST(LogWriterReader, StreamRoundTripWithHeaderAndMalformedLines) {
  std::stringstream stream;
  LogWriter writer(stream);
  const auto r1 = sample_record();
  auto r2 = sample_record();
  r2.timestamp = 2000.25;
  r2.method = http::Method::kPost;
  r2.cache_status = CacheStatus::kNotCacheable;
  writer.write(r1);
  writer.write(r2);
  EXPECT_EQ(writer.written(), 2u);

  stream << "this is not a log line\n\n";

  IngestReport report;
  const auto table = read_back(stream.str(), &report);
  ASSERT_EQ(table.size(), 2u);
  expect_equal(table.record(0), r1);
  expect_equal(table.record(1), r2);
  EXPECT_EQ(report.malformed, 1u);  // empty lines are skipped silently
}

TEST(LogLine, ToleratesCrlfLineEndings) {
  const auto r = sample_record();
  const auto parsed = from_line(to_line(r) + "\r");
  ASSERT_TRUE(parsed.has_value());
  expect_equal(*parsed, r);
}

TEST(LogWriterReader, ReadsCrlfStreamsAndFinalRowWithoutNewline) {
  const auto r1 = sample_record();
  auto r2 = sample_record();
  r2.timestamp = 99.75;
  // A Windows-edited log: CRLF endings, a blank CR line, and no newline
  // after the final row.
  std::stringstream stream;
  stream << log_header() << "\r\n"
         << to_line(r1) << "\r\n"
         << "\r\n"
         << to_line(r2);  // no trailing newline
  IngestReport report;
  const auto table = read_back(stream.str(), &report);
  ASSERT_EQ(table.size(), 2u);
  expect_equal(table.record(0), r1);
  expect_equal(table.record(1), r2);
  EXPECT_EQ(report.malformed, 0u);
}

class LogFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_log_path();
    std::ofstream out(path_);
    LogWriter writer(out);
    for (int i = 0; i < 25; ++i) {
      auto r = sample_record();
      r.timestamp = 100.0 + i;
      r.url = "https://api.news-000.example/api/v1/stories/" +
              std::to_string(i);
      writer.write(r);
      written_.push_back(std::move(r));
    }
    out << "not a log line\n";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::vector<LogRecord> written_;
};

TEST_F(LogFileTest, ReadLogFileLoadsAndCountsMalformed) {
  IngestReport report;
  const auto table = read_log_table(path_, IngestOptions{}, &report);
  ASSERT_EQ(table.size(), written_.size());
  EXPECT_EQ(report.malformed, 1u);
  for (std::uint32_t i = 0; i < written_.size(); ++i)
    expect_equal(table.record(i), written_[i]);
}

TEST_F(LogFileTest, ReadLogFileThrowsOnMissingFile) {
  EXPECT_THROW((void)read_log_table(path_ + ".does-not-exist"),
               std::runtime_error);
}

TEST(LogHeader, StartsWithCommentMarker) {
  EXPECT_EQ(log_header().front(), '#');
}

TEST(Anonymizer, DeterministicPerSalt) {
  Anonymizer a(42);
  EXPECT_EQ(a.pseudonym("10.0.0.1"), a.pseudonym("10.0.0.1"));
  EXPECT_NE(a.pseudonym("10.0.0.1"), a.pseudonym("10.0.0.2"));
}

TEST(Anonymizer, DifferentSaltsCannotBeJoined) {
  Anonymizer a(1);
  Anonymizer b(2);
  EXPECT_NE(a.pseudonym("10.0.0.1"), b.pseudonym("10.0.0.1"));
}

TEST(Anonymizer, ProducesFixedWidthHex) {
  Anonymizer a(7);
  const auto p = a.pseudonym("192.168.1.1");
  EXPECT_EQ(p.size(), 16u);
  EXPECT_EQ(p.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(ClientKey, CombinesIpHashAndUserAgent) {
  auto r = sample_record();
  const auto key1 = r.client_key();
  r.user_agent = "other";
  EXPECT_NE(r.client_key(), key1);  // same IP, different UA = different client
}

}  // namespace
}  // namespace jsoncdn::logs
