// Columnar log store: interner symbol/view stability, the LogTable row proxy
// against the records it was built from, and the zero-copy file ingest.
#include "logs/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "http/mime.h"
#include "logs/csv.h"
#include "logs/interner.h"
#include "logs/zerocopy.h"
#include "shard/reader.h"
#include "shard/writer.h"
#include "stats/rng.h"

namespace jsoncdn::logs {
namespace {

// ---- StringInterner -------------------------------------------------------

TEST(StringInterner, AssignsDenseFirstSeenSymbols) {
  StringInterner interner;
  EXPECT_TRUE(interner.empty());
  EXPECT_EQ(interner.intern("alpha"), 0u);
  EXPECT_EQ(interner.intern("beta"), 1u);
  EXPECT_EQ(interner.intern("alpha"), 0u);  // stable on re-intern
  EXPECT_EQ(interner.intern(""), 2u);       // empty string is a real symbol
  EXPECT_EQ(interner.size(), 3u);

  EXPECT_EQ(interner.find("beta"), 1u);
  EXPECT_EQ(interner.find("gamma"), StringInterner::kNoSymbol);
  EXPECT_EQ(interner.view(0), "alpha");
  EXPECT_EQ(interner.view(2), "");
}

TEST(StringInterner, ViewsStayValidAcrossArenaGrowth) {
  StringInterner interner;
  const auto first = interner.intern("the-very-first-string");
  const std::string_view early = interner.view(first);
  const char* early_data = early.data();

  // Push well past one 64 KiB arena block so several blocks are allocated.
  for (int i = 0; i < 5000; ++i) {
    interner.intern("padding-string-number-" + std::to_string(i) +
                    "-with-some-extra-length-to-fill-arena-blocks-faster");
  }
  // The early view must still point at the same bytes — blocks never move.
  EXPECT_EQ(interner.view(first).data(), early_data);
  EXPECT_EQ(interner.view(first), "the-very-first-string");
  EXPECT_EQ(interner.find("the-very-first-string"), first);
}

TEST(StringInterner, HundredThousandSymbolStress) {
  StringInterner interner;
  interner.reserve(100'000);
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    ASSERT_EQ(interner.intern("sym-" + std::to_string(i)), i);
  }
  EXPECT_EQ(interner.size(), 100'000u);
  // Spot-check lookups and views across the whole range.
  for (std::uint32_t i = 0; i < 100'000; i += 9973) {
    const std::string s = "sym-" + std::to_string(i);
    EXPECT_EQ(interner.find(s), i);
    EXPECT_EQ(interner.view(i), s);
  }
  EXPECT_GT(interner.memory_bytes(), 100'000u);  // arena is accounted for
}

// The keys one-at-a-time and batched interning must agree on: shared-prefix
// client ids, repeats, the empty string and a string longer than one 64 KiB
// arena block.
std::vector<std::string> interner_keys() {
  std::vector<std::string> keys;
  for (int i = 0; i < 3000; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "client-%07d", (i * 7919) % 1200);
    keys.emplace_back(buf);
    if (i % 500 == 0) keys.emplace_back();
    if (i == 1700) keys.emplace_back(70'000, 'x');
  }
  keys.emplace_back(70'000, 'x');
  return keys;
}

TEST(StringInterner, BatchMatchesOneAtATime) {
  const auto keys = interner_keys();
  StringInterner single;
  std::vector<StringInterner::Symbol> expected;
  for (const auto& k : keys) expected.push_back(single.intern(k));

  // Uneven batches, starting from an empty table, so the batch path grows
  // through many rehashes.
  StringInterner batched;
  std::vector<StringInterner::Symbol> got(keys.size());
  std::size_t at = 0;
  for (const std::size_t len : {1u, 7u, 300u, 5000u}) {
    const std::size_t end = std::min(keys.size(), at + len);
    std::vector<std::string_view> views(keys.begin() + at, keys.begin() + end);
    batched.intern_batch(views, got.data() + at);
    at = end;
  }
  std::vector<std::string_view> rest(keys.begin() + at, keys.end());
  batched.intern_batch(rest, got.data() + at);

  EXPECT_EQ(got, expected);
  ASSERT_EQ(batched.size(), single.size());
  for (StringInterner::Symbol s = 0; s < single.size(); ++s) {
    ASSERT_EQ(batched.view(s), single.view(s)) << s;
  }
  EXPECT_EQ(batched.find(std::string(70'000, 'x')),
            single.find(std::string(70'000, 'x')));
  EXPECT_EQ(batched.find(""), single.find(""));
}

TEST(StringInterner, BatchGrowthKeepsEarlierViews) {
  StringInterner interner;
  const std::vector<std::string_view> first = {"client-0000001",
                                               "client-0000002", ""};
  std::vector<StringInterner::Symbol> symbols(first.size());
  interner.intern_batch(first, symbols.data());
  const char* early = interner.view(symbols[0]).data();

  std::vector<std::string> keys;
  for (int i = 0; i < 50'000; ++i) keys.push_back("client-" + std::to_string(i));
  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<StringInterner::Symbol> more(views.size());
  interner.intern_batch(views, more.data());

  EXPECT_EQ(interner.view(symbols[0]).data(), early);
  EXPECT_EQ(interner.view(symbols[0]), "client-0000001");
  EXPECT_EQ(interner.view(symbols[2]), "");
  for (std::size_t k = 0; k < keys.size(); k += 997) {
    EXPECT_EQ(interner.view(more[k]), keys[k]);
    EXPECT_EQ(interner.find(keys[k]), more[k]);
  }
  EXPECT_EQ(interner.find("client-0000001"), symbols[0]);
}

TEST(StringInterner, FindNeverInserts) {
  StringInterner interner;
  EXPECT_EQ(interner.find("absent"), StringInterner::kNoSymbol);
  EXPECT_EQ(interner.find(""), StringInterner::kNoSymbol);
  EXPECT_TRUE(interner.empty());
  interner.intern("present");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(interner.find("absent-" + std::to_string(i)),
              StringInterner::kNoSymbol);
  }
  EXPECT_EQ(interner.find(""), StringInterner::kNoSymbol);
  EXPECT_EQ(interner.size(), 1u);
  EXPECT_EQ(interner.find("present"), 0u);
  // A string first looked up and then interned gets the next symbol.
  EXPECT_EQ(interner.intern("absent-3"), 1u);
}

// ---- LogTable -------------------------------------------------------------

std::vector<LogRecord> make_records(std::size_t n, std::uint64_t seed = 99) {
  std::vector<LogRecord> ds;
  stats::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    LogRecord r;
    r.timestamp = rng.uniform(0.0, 600.0);
    r.client_id = "client-" + std::to_string(i % 37);
    r.user_agent = i % 5 == 0 ? "" : "Agent/" + std::to_string(i % 7);
    r.method = i % 11 == 0 ? http::Method::kPost : http::Method::kGet;
    r.url = "https://api.test.example/obj/" + std::to_string(i % 53);
    r.domain = i % 2 == 0 ? "api.test.example" : "www.test.example";
    r.content_type = i % 3 == 0 ? "text/html; charset=utf-8"
                                : "application/json";
    r.status = i % 17 == 0 ? 504 : 200;
    r.response_bytes = 100 + i;
    r.request_bytes = i % 11 == 0 ? 256 : 0;
    r.cache_status = static_cast<CacheStatus>(i % kCacheStatusCount);
    r.edge_id = static_cast<std::uint32_t>(i % 4);
    ds.push_back(std::move(r));
  }
  return ds;
}

LogTable table_of(const std::vector<LogRecord>& records) {
  LogTable table;
  for (const auto& r : records) table.append(r);
  return table;
}

void sort_by_time(std::vector<LogRecord>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
}

void expect_same_records(const std::vector<LogRecord>& records,
                         const LogTable& table) {
  ASSERT_EQ(records.size(), table.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    const auto row = table.row(static_cast<LogTable::RowIndex>(i));
    ASSERT_EQ(row.timestamp(), r.timestamp) << i;
    ASSERT_EQ(row.client_id(), r.client_id) << i;
    ASSERT_EQ(row.user_agent(), r.user_agent) << i;
    ASSERT_EQ(row.method(), r.method) << i;
    ASSERT_EQ(row.url(), r.url) << i;
    ASSERT_EQ(row.domain(), r.domain) << i;
    ASSERT_EQ(row.content_type(), r.content_type) << i;
    ASSERT_EQ(row.status(), r.status) << i;
    ASSERT_EQ(row.response_bytes(), r.response_bytes) << i;
    ASSERT_EQ(row.request_bytes(), r.request_bytes) << i;
    ASSERT_EQ(row.cache_status(), r.cache_status) << i;
    ASSERT_EQ(row.edge_id(), r.edge_id) << i;
    ASSERT_EQ(row.object_key(), r.object_key()) << i;
    ASSERT_EQ(row.client_key(), r.client_key()) << i;
  }
}

TEST(LogTable, RowProxyMatchesDataset) {
  const auto ds = make_records(2000);
  const auto table = table_of(ds);
  expect_same_records(ds, table);

  // Distinct counts are dictionary sizes and must agree with the records.
  std::set<std::string> domains, objects, clients;
  double lo = ds.front().timestamp;
  double hi = lo;
  for (const auto& r : ds) {
    domains.insert(r.domain);
    objects.insert(r.url);
    clients.insert(r.client_key());
    lo = std::min(lo, r.timestamp);
    hi = std::max(hi, r.timestamp);
  }
  EXPECT_EQ(table.distinct_domains(), domains.size());
  EXPECT_EQ(table.distinct_objects(), objects.size());
  EXPECT_EQ(table.distinct_clients(), clients.size());
  EXPECT_EQ(table.time_range(), std::make_pair(lo, hi));
}

TEST(LogTable, FlowKeyPacksClientAndUrlSymbols) {
  const auto records = make_records(500);
  const auto table = table_of(records);
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t j = i + 1; j < std::min(records.size(), i + 40); ++j) {
      const bool same_flow = records[i].url == records[j].url &&
                             records[i].client_key() == records[j].client_key();
      const auto a = static_cast<LogTable::RowIndex>(i);
      const auto b = static_cast<LogTable::RowIndex>(j);
      ASSERT_EQ(table.flow_key(a) == table.flow_key(b), same_flow)
          << i << " vs " << j;
    }
  }
}

TEST(LogTable, SortByTimeMatchesDatasetStableSort) {
  auto ds = make_records(3000);
  auto table = table_of(ds);
  sort_by_time(ds);
  table.sort_by_time();
  expect_same_records(ds, table);
}

TEST(LogTable, JsonRowsMatchDatasetFilter) {
  const auto ds = make_records(2000);
  const auto table = table_of(ds);
  std::vector<LogRecord> json;
  for (const auto& r : ds) {
    if (http::is_json(r.content_type)) json.push_back(r);
  }
  const auto rows = table.json_rows();
  ASSERT_EQ(rows.size(), json.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(table.url(rows[k]), json[k].url);
    EXPECT_EQ(table.timestamp(rows[k]), json[k].timestamp);
  }
}

LogRecord make(double t, const std::string& client, const std::string& url) {
  LogRecord r;
  r.timestamp = t;
  r.client_id = client;
  r.user_agent = "ua";
  r.url = url;
  r.domain = "d.example";
  r.content_type = "application/json";
  return r;
}

TEST(LogTable, SortByTimeIsStable) {
  LogTable table;
  table.append(make(2.0, "a", "u1"));
  table.append(make(1.0, "b", "u2"));
  table.append(make(1.0, "c", "u3"));
  table.sort_by_time();
  EXPECT_EQ(table.client_id(0), "b");
  EXPECT_EQ(table.client_id(1), "c");  // equal keys keep insertion order
  EXPECT_EQ(table.client_id(2), "a");
}

TEST(LogTable, SelectPreservesOrder) {
  LogTable table;
  table.append(make(1.0, "a", "u1"));
  table.append(make(2.0, "b", "u2"));
  table.append(make(3.0, "a", "u3"));
  const std::vector<LogTable::RowIndex> rows = {0, 2};
  const auto out = table.select(rows);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.url(0), "u1");
  EXPECT_EQ(out.url(1), "u3");
  // The copy's dictionaries hold only the selected rows' strings.
  EXPECT_EQ(out.distinct_objects(), 2u);
  EXPECT_EQ(out.distinct_clients(), 1u);
}

TEST(LogTable, JsonRowsUseMimeClassifier) {
  LogTable table;
  auto r1 = make(1.0, "a", "u1");
  r1.content_type = "application/json; charset=utf-8";
  auto r2 = make(2.0, "a", "u2");
  r2.content_type = "text/html";
  auto r3 = make(3.0, "a", "u3");
  r3.content_type = "application/vnd.api+json";
  table.append(r1);
  table.append(r2);
  table.append(r3);
  EXPECT_EQ(table.json_rows(), (std::vector<LogTable::RowIndex>{0, 2}));
}

TEST(LogTable, TimeRangeAndDistincts) {
  LogTable table;
  EXPECT_EQ(table.time_range(), (std::pair<double, double>{0.0, 0.0}));
  table.append(make(5.0, "a", "u1"));
  table.append(make(2.0, "b", "u1"));
  table.append(make(9.0, "a", "u2"));
  EXPECT_EQ(table.time_range(), (std::pair<double, double>{2.0, 9.0}));
  EXPECT_EQ(table.distinct_objects(), 2u);
  EXPECT_EQ(table.distinct_clients(), 2u);
  EXPECT_EQ(table.distinct_domains(), 1u);
}

TEST(LogTable, AppendAfterJlogLoadKeepsInterningConsistent) {
  const auto ds = make_records(300);
  const std::string path = testing::TempDir() + "append_after_load.jlog";
  shard::write_jlog_v2(path, table_of(ds));
  auto table = shard::ShardReader(path).read_all();
  // Appending a record whose client pair already exists must reuse its
  // symbol even though loading the file leaves the client pairs empty.
  const auto& first = ds.front();
  const auto before = table.distinct_clients();
  table.append(first);
  EXPECT_EQ(table.distinct_clients(), before);
  EXPECT_EQ(table.client_key(static_cast<LogTable::RowIndex>(table.size() - 1)),
            first.client_key());
  std::remove(path.c_str());
}

RowBatch batch_of(const std::vector<LogRecord>& records, std::size_t begin,
                  std::size_t end) {
  RowBatch batch;
  for (std::size_t i = begin; i < end; ++i) {
    const auto& r = records[i];
    batch.push(r.timestamp, r.client_id, r.user_agent, r.method, r.url,
               r.domain, r.content_type, r.status, r.response_bytes,
               r.request_bytes, r.cache_status, r.edge_id);
  }
  return batch;
}

void expect_same_dictionary(const StringInterner& a, const StringInterner& b) {
  ASSERT_EQ(a.size(), b.size());
  for (StringInterner::Symbol s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a.view(s), b.view(s)) << s;
  }
}

void expect_same_symbols(const LogTable& a, const LogTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (LogTable::RowIndex i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.url_sym(i), b.url_sym(i)) << i;
    ASSERT_EQ(a.client_id_sym(i), b.client_id_sym(i)) << i;
    ASSERT_EQ(a.user_agent_sym(i), b.user_agent_sym(i)) << i;
    ASSERT_EQ(a.domain_sym(i), b.domain_sym(i)) << i;
    ASSERT_EQ(a.content_type_sym(i), b.content_type_sym(i)) << i;
    ASSERT_EQ(a.client_sym(i), b.client_sym(i)) << i;
  }
  expect_same_dictionary(a.urls(), b.urls());
  expect_same_dictionary(a.client_ids(), b.client_ids());
  expect_same_dictionary(a.user_agents(), b.user_agents());
  expect_same_dictionary(a.domains(), b.domains());
  expect_same_dictionary(a.content_types(), b.content_types());
  expect_same_dictionary(a.client_keys(), b.client_keys());
}

TEST(LogTable, AppendBatchMatchesAppendFields) {
  const auto records = make_records(3000);
  const auto reference = table_of(records);
  LogTable batched;
  // Batches of uneven sizes, one of them empty, plus single rows between.
  std::size_t at = 0;
  for (const std::size_t len : {0u, 1u, 64u, 1000u}) {
    batched.append_batch(batch_of(records, at, at + len));
    at += len;
    batched.append(records[at++]);
  }
  batched.append_batch(batch_of(records, at, records.size()));
  expect_same_records(records, batched);
  expect_same_symbols(reference, batched);
}

TEST(LogTable, ClientIdAlternatingUserAgentsKeepsClientKeys) {
  std::vector<LogRecord> records;
  for (int i = 0; i < 6; ++i) {
    auto r = make(i, "id", "u");
    r.user_agent = i % 2 == 0 ? "ua-a" : "ua-b";
    records.push_back(r);
  }
  records.push_back(make(6.0, "other", "u"));  // ua "ua"
  for (const bool batched : {false, true}) {
    LogTable table;
    if (batched) {
      table.append_batch(batch_of(records, 0, records.size()));
    } else {
      for (const auto& r : records) table.append(r);
    }
    const std::vector<LogTable::Symbol> expected = {0, 1, 0, 1, 0, 1, 2};
    for (LogTable::RowIndex i = 0; i < records.size(); ++i) {
      EXPECT_EQ(table.client_sym(i), expected[i]) << i << " batched "
                                                  << batched;
      EXPECT_EQ(table.client_key(i), records[i].client_key());
    }
    ASSERT_EQ(table.client_keys().size(), 3u);
    EXPECT_EQ(table.client_keys().view(0), "id|ua-a");
    EXPECT_EQ(table.client_keys().view(1), "id|ua-b");
    EXPECT_EQ(table.client_keys().view(2), "other|ua");
  }
}

// ---- Zero-copy file ingest ------------------------------------------------

// The records as the TSV text carries them (timestamps at the writer's
// fixed six decimals), i.e. what a correct reader must return.
std::vector<LogRecord> as_written(const std::vector<LogRecord>& records) {
  std::vector<LogRecord> out;
  for (const auto& r : records) out.push_back(*from_line(to_line(r)));
  return out;
}

std::string write_temp_log(const std::string& name,
                           const std::vector<LogRecord>& ds,
                           const std::vector<std::string>& extra_lines = {}) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  LogWriter writer(out);
  for (const auto& r : ds) writer.write(r);
  for (const auto& line : extra_lines) out << line << "\n";
  return path;
}

TEST(ZeroCopyIngest, MatchesRowIngestOnCleanFile) {
  auto ds = make_records(1200);
  {
    // Exercise the unescape slow path: tabs and '+' in fields.
    LogRecord r = ds.front();
    r.url = "https://api.test.example/search?q=a+b\tc";
    r.user_agent = "Agent With Spaces/1.0\t(tabbed)";
    ds.push_back(std::move(r));
  }
  const auto path = write_temp_log("zerocopy_clean.log", ds);

  IngestReport col_report;
  const auto table = read_log_table(path, IngestOptions{}, &col_report);

  // Every written record comes back; the header is line 1.
  expect_same_records(as_written(ds), table);
  EXPECT_EQ(col_report.lines, 1202u);
  EXPECT_EQ(col_report.records, 1201u);
  EXPECT_EQ(col_report.malformed, 0u);
  EXPECT_TRUE(col_report.header_seen);
  std::remove(path.c_str());
}

TEST(ZeroCopyIngest, CountsMalformedLinesLikeRowIngest) {
  const auto ds = make_records(200);
  const auto path = write_temp_log(
      "zerocopy_malformed.log", ds,
      {"not\ta\tlog\tline", "# a comment line",
       "sideways\tc\tua\tGET\tu\td\tct\t200\t1\t0\tHIT\t1",
       "1.5\tc\tua\tBREW\tu\td\tct\t200\t1\t0\tHIT\t1"});

  IngestReport col_report;
  const auto table = read_log_table(path, IngestOptions{}, &col_report);

  // Header + 200 records + 4 extra lines; the comment is not malformed.
  expect_same_records(as_written(ds), table);
  EXPECT_EQ(col_report.lines, 205u);
  EXPECT_EQ(col_report.malformed, 3u);
  const std::map<std::string, std::uint64_t> reasons = {
      {"bad-method", 1}, {"bad-timestamp", 1}, {"column-count", 1}};
  EXPECT_EQ(col_report.reasons, reasons);
  std::remove(path.c_str());
}

TEST(ZeroCopyIngest, StrictModeThrowsTheSameMessage) {
  const auto ds = make_records(10);
  const auto path =
      write_temp_log("zerocopy_strict.log", ds, {"short\tline"});
  IngestOptions strict;
  strict.mode = ParseMode::kStrict;
  try {
    (void)read_log_table(path, strict);
    FAIL() << "columnar ingest did not throw";
  } catch (const std::exception& e) {
    // The header is line 1, so the bad line is line 12.
    EXPECT_STREQ(e.what(), "malformed log line 12: column-count");
  }
  std::remove(path.c_str());
}

TEST(ZeroCopyIngest, HandlesMissingFinalNewlineAndCrlf) {
  const std::string path = testing::TempDir() + "zerocopy_edges.log";
  {
    const auto line = to_line(LogRecord{});
    std::ofstream out(path, std::ios::binary);
    out << line << "\r\n" << line;  // CRLF line + no final newline
  }
  IngestReport report;
  const auto table = read_log_table(path, IngestOptions{}, &report);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(report.records, 2u);
  EXPECT_EQ(report.malformed, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jsoncdn::logs
