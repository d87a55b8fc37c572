// End-to-end tests of the `.jlog` v2 store: write/read round trips against
// a reference table, magic-based format detection (and the rejection of
// retired v1 files), zone-map pruning semantics, and adversarial robustness
// (truncation at every prefix class, bit flips anywhere in the file).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "logs/csv.h"
#include "logs/record.h"
#include "logs/table.h"
#include "shard/format.h"
#include "shard/reader.h"
#include "shard/synth.h"
#include "shard/writer.h"

namespace {

using jsoncdn::logs::LogTable;
using jsoncdn::shard::ScanPredicate;
using jsoncdn::shard::ShardReader;
using jsoncdn::shard::ShardWriter;
using jsoncdn::shard::ShardWriterOptions;
using jsoncdn::shard::SynthFields;
using jsoncdn::shard::SynthOptions;

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("jsoncdn_shard_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

SynthOptions small_workload(std::uint64_t records) {
  SynthOptions options;
  options.records = records;
  options.seed = 7;
  options.clients = 500;
  options.urls = 200;
  options.domains = 16;
  return options;
}

// Builds the reference table by streaming the same synthetic workload
// through LogTable::append_fields — the rows every store must reproduce.
LogTable reference_table(const SynthOptions& options) {
  LogTable table;
  jsoncdn::shard::synth_records(options, [&](const SynthFields& f) {
    table.append_fields(f.timestamp, f.client_id, f.user_agent, f.method,
                        f.url, f.domain, f.content_type, f.status,
                        f.response_bytes, f.request_bytes, f.cache_status,
                        f.edge_id);
  });
  return table;
}

void write_v2(const std::string& path, const SynthOptions& options,
              std::uint32_t chunk_rows) {
  ShardWriterOptions writer_options;
  writer_options.chunk_rows = chunk_rows;
  ShardWriter writer(path, writer_options);
  jsoncdn::shard::synth_records(options, [&](const SynthFields& f) {
    writer.append_fields(f.timestamp, f.client_id, f.user_agent, f.method,
                         f.url, f.domain, f.content_type, f.status,
                         f.response_bytes, f.request_bytes, f.cache_status,
                         f.edge_id);
  });
  const auto stats = writer.finalize();
  EXPECT_EQ(stats.rows, options.records);
}

void expect_tables_equal(const LogTable& a, const LogTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::uint32_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.timestamp(i), b.timestamp(i)) << "row " << i;
    ASSERT_EQ(a.client_id(i), b.client_id(i)) << "row " << i;
    ASSERT_EQ(a.user_agent(i), b.user_agent(i)) << "row " << i;
    ASSERT_EQ(a.method(i), b.method(i)) << "row " << i;
    ASSERT_EQ(a.url(i), b.url(i)) << "row " << i;
    ASSERT_EQ(a.domain(i), b.domain(i)) << "row " << i;
    ASSERT_EQ(a.content_type(i), b.content_type(i)) << "row " << i;
    ASSERT_EQ(a.status(i), b.status(i)) << "row " << i;
    ASSERT_EQ(a.response_bytes(i), b.response_bytes(i)) << "row " << i;
    ASSERT_EQ(a.request_bytes(i), b.request_bytes(i)) << "row " << i;
    ASSERT_EQ(a.cache_status(i), b.cache_status(i)) << "row " << i;
    ASSERT_EQ(a.edge_id(i), b.edge_id(i)) << "row " << i;
    ASSERT_EQ(a.client_key(i), b.client_key(i)) << "row " << i;
  }
}

TEST_F(TempDir, V2RoundTripMatchesReferenceAcrossChunkGeometries) {
  const auto options = small_workload(5000);
  const LogTable reference = reference_table(options);
  // 64-row chunks force many chunks; 8192 leaves the last chunk short;
  // 5000 gives exactly one full chunk; 1 is the degenerate geometry.
  for (const std::uint32_t chunk_rows : {64u, 8192u, 5000u, 1u}) {
    const auto file = path("store.jlog");
    write_v2(file, options, chunk_rows);
    ShardReader reader(file);
    EXPECT_EQ(reader.row_count(), options.records);
    EXPECT_EQ(reader.chunk_target_rows(), chunk_rows);
    jsoncdn::logs::IngestReport report;
    const LogTable loaded = reader.read_all(&report);
    EXPECT_EQ(report.records, options.records);
    EXPECT_TRUE(report.header_seen);
    expect_tables_equal(reference, loaded);
  }
}

TEST_F(TempDir, DetectLogFormatDispatchesOnMagic) {
  using jsoncdn::shard::detect_log_format;
  using jsoncdn::shard::LogFormat;
  const auto options = small_workload(100);
  const LogTable reference = reference_table(options);

  const auto v1 = path("image.jlog");
  const auto v2 = path("store.jlog");
  const auto text = path("log.tsv");
  write_v2(v2, options, 64);
  {
    std::ofstream os(text);
    jsoncdn::logs::LogWriter writer(os);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      writer.write(reference.record(static_cast<std::uint32_t>(i)));
    }
  }
  {
    // A retired v1 image: only its magic is ever read.
    std::ofstream os(v1, std::ios::binary);
    os << "jlogcdn1" << std::string(64, '\0');
  }

  EXPECT_EQ(detect_log_format(v2), LogFormat::kJlogV2);
  EXPECT_EQ(detect_log_format(text), LogFormat::kText);
  EXPECT_EQ(detect_log_format(path("missing")), LogFormat::kText);

  // The v1 magic throws a message naming the file and both regeneration
  // commands, from the detector and from the loader every tool uses.
  const auto expect_retired = [&](const std::function<void()>& load) {
    try {
      load();
      ADD_FAILURE() << "a jlogcdn1 file was accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("retired .jlog v1 file"), std::string::npos)
          << what;
      EXPECT_NE(what.find("jsoncdn-generate ... --jlog-v2 " + v1),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("jsoncdn-jlog convert LOG.tsv " + v1),
                std::string::npos)
          << what;
    }
  };
  expect_retired([&] { (void)detect_log_format(v1); });
  expect_retired([&] { (void)jsoncdn::shard::load_table_auto(v1); });

  // load_table_auto reproduces the v2 rows exactly.
  {
    jsoncdn::logs::IngestReport report;
    const LogTable loaded = jsoncdn::shard::load_table_auto(v2, {}, &report);
    EXPECT_EQ(report.records, reference.size());
    expect_tables_equal(reference, loaded);
  }
  // Text is lossy in the timestamp (LogWriter prints six fixed decimals),
  // so compare it with a tolerance and everything else exactly.
  {
    jsoncdn::logs::IngestReport report;
    const LogTable loaded =
        jsoncdn::shard::load_table_auto(text, {}, &report);
    EXPECT_EQ(report.records, reference.size());
    ASSERT_EQ(loaded.size(), reference.size());
    for (std::uint32_t i = 0; i < reference.size(); ++i) {
      EXPECT_NEAR(loaded.timestamp(i), reference.timestamp(i), 5e-7)
          << "row " << i;
      EXPECT_EQ(loaded.url(i), reference.url(i)) << "row " << i;
      EXPECT_EQ(loaded.client_id(i), reference.client_id(i)) << "row " << i;
      EXPECT_EQ(loaded.response_bytes(i), reference.response_bytes(i))
          << "row " << i;
    }
  }
}

TEST_F(TempDir, ScanPrunesTimeWindowsButSelectsIdenticalRows) {
  auto options = small_workload(8000);
  options.duration = 8000.0;  // 1s per record, time-ordered
  const auto file = path("store.jlog");
  write_v2(file, options, 500);  // 16 chunks of 500s each

  ShardReader reader(file);
  ScanPredicate window;
  window.min_time = 0.0;
  window.max_time = 2000.0;  // first quarter

  std::vector<double> pruned_rows;
  const auto pruned_stats = reader.scan(
      window, [&](const LogTable& chunk, std::span<const std::uint32_t> sel) {
        for (const auto row : sel) pruned_rows.push_back(chunk.timestamp(row));
      });
  // ~12 of 16 chunks lie wholly outside the quarter window.
  EXPECT_GE(pruned_stats.chunks_pruned, pruned_stats.chunks_total / 2);
  EXPECT_EQ(pruned_stats.chunks_pruned + pruned_stats.chunks_scanned,
            pruned_stats.chunks_total);

  ScanPredicate unpruned = window;
  unpruned.use_zone_maps = false;
  std::vector<double> full_rows;
  const auto full_stats = reader.scan(
      unpruned,
      [&](const LogTable& chunk, std::span<const std::uint32_t> sel) {
        for (const auto row : sel) full_rows.push_back(chunk.timestamp(row));
      });
  EXPECT_EQ(full_stats.chunks_pruned, 0u);
  EXPECT_EQ(full_stats.chunks_scanned, full_stats.chunks_total);
  // Pruning is conservative: identical selected rows either way.
  EXPECT_EQ(pruned_rows, full_rows);
  EXPECT_EQ(pruned_stats.rows_selected, full_stats.rows_selected);
  for (const auto t : pruned_rows) {
    EXPECT_GE(t, window.min_time);
    EXPECT_LE(t, window.max_time);
  }
}

TEST_F(TempDir, ScanPrunesBySymbolRange) {
  const auto options = small_workload(4000);
  const auto file = path("store.jlog");
  write_v2(file, options, 250);

  ShardReader reader(file);
  // A URL that never occurs prunes everything via the row filter; an
  // out-of-range symbol can even prune every chunk.
  ScanPredicate nothing;
  nothing.url_symbols = {0xfffffff0u};
  std::uint64_t calls = 0;
  const auto stats = reader.scan(
      nothing,
      [&](const LogTable&, std::span<const std::uint32_t>) { ++calls; });
  EXPECT_EQ(stats.rows_selected, 0u);
  EXPECT_EQ(stats.chunks_pruned, stats.chunks_total);
  EXPECT_EQ(calls, 0u);

  // Every row of a known URL is found, and matches a full-scan count.
  const auto& dicts = reader.dictionaries();
  const auto target = dicts.urls().find("/api/v1/object/000003");
  ASSERT_NE(target, jsoncdn::logs::StringInterner::kNoSymbol);
  ScanPredicate by_url;
  by_url.url_symbols = {target};
  std::uint64_t selected = 0;
  reader.scan(by_url, [&](const LogTable& chunk,
                          std::span<const std::uint32_t> sel) {
    for (const auto row : sel) {
      EXPECT_EQ(chunk.url_sym(row), target);
      ++selected;
    }
  });
  std::uint64_t expected = 0;
  const LogTable all = ShardReader(file).read_all();
  for (std::uint32_t i = 0; i < all.size(); ++i) {
    if (all.url(i) == "/api/v1/object/000003") ++expected;
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(selected, expected);
}

TEST_F(TempDir, RejectsTruncationAtEveryRegion) {
  const auto options = small_workload(600);
  const auto file = path("store.jlog");
  write_v2(file, options, 100);

  std::ifstream is(file, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes.empty());

  // Truncation points spanning every structural region: inside the magic,
  // inside chunk payloads, inside the footer, and inside the trailer.
  const std::size_t points[] = {0,
                                4,
                                8,
                                bytes.size() / 4,
                                bytes.size() / 2,
                                bytes.size() - 30,
                                bytes.size() - 24,
                                bytes.size() - 8,
                                bytes.size() - 1};
  for (const auto keep : points) {
    const auto trunc = path("trunc.jlog");
    std::ofstream os(trunc, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(keep));
    os.close();
    EXPECT_THROW(
        {
          ShardReader reader(trunc);
          static_cast<void>(reader.read_all());
        },
        std::runtime_error)
        << "accepted a " << keep << "-byte prefix of " << bytes.size();
  }
}

TEST_F(TempDir, RejectsEveryBitFlipInSampledPositions) {
  const auto options = small_workload(400);
  const auto file = path("store.jlog");
  write_v2(file, options, 64);

  std::ifstream is(file, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes.empty());

  // Every byte of a small file would be slow under sanitizers; a stride
  // still lands flips in the magic, payloads, footer, and trailer, plus the
  // exact boundaries.
  std::vector<std::size_t> positions = {0, 7, 8, bytes.size() - 24,
                                        bytes.size() - 16, bytes.size() - 8,
                                        bytes.size() - 1};
  for (std::size_t p = 9; p < bytes.size(); p += 97) positions.push_back(p);

  for (const auto pos : positions) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    const auto flipped = path("flip.jlog");
    std::ofstream os(flipped, std::ios::binary | std::ios::trunc);
    os.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    os.close();
    EXPECT_THROW(
        {
          ShardReader reader(flipped);
          // Structural checks may pass (a flip inside a payload body is
          // only caught by its chunk checksum) — decoding must catch it.
          static_cast<void>(reader.read_all());
        },
        std::runtime_error)
        << "flip at byte " << pos << " of " << bytes.size() << " accepted";
  }
}

std::string read_bytes(const std::string& file) {
  std::ifstream is(file, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

TEST_F(TempDir, MixedAppendAndAppendFieldsWriteTableBytes) {
  const LogTable reference = reference_table(small_workload(700));
  const auto expected_file = path("expected.jlog");
  ShardWriterOptions options;
  options.chunk_rows = 256;
  jsoncdn::shard::write_jlog_v2(expected_file, reference, options);

  // Rows [0, 700) alternate between staged single rows and whole tables,
  // switching inside chunks and across the chunk boundaries at 256 and 512.
  const auto mixed_file = path("mixed.jlog");
  ShardWriter writer(mixed_file, options);
  std::uint32_t row = 0;
  const auto append_rows = [&](std::uint32_t end) {
    for (; row < end; ++row) {
      writer.append_fields(
          reference.timestamp(row), reference.client_id(row),
          reference.user_agent(row), reference.method(row),
          reference.url(row), reference.domain(row),
          reference.content_type(row), reference.status(row),
          reference.response_bytes(row), reference.request_bytes(row),
          reference.cache_status(row), reference.edge_id(row));
    }
  };
  const auto append_table = [&](std::uint32_t end) {
    std::vector<LogTable::RowIndex> rows;
    for (; row < end; ++row) rows.push_back(row);
    writer.append(reference.select(rows));
  };
  append_rows(30);
  append_table(100);
  append_rows(250);
  append_table(300);
  EXPECT_EQ(writer.rows_appended(), 300u);
  append_rows(520);
  append_table(640);
  append_rows(700);
  EXPECT_EQ(writer.rows_appended(), 700u);
  writer.finalize();

  EXPECT_EQ(read_bytes(mixed_file), read_bytes(expected_file));
}

TEST_F(TempDir, RejectsDuplicateDictionaryEntry) {
  const auto file = path("store.jlog");
  write_v2(file, small_workload(300), 100);
  std::string bytes = read_bytes(file);

  // The footer opens with the url dictionary: count, lengths, bytes. Every
  // synth url has the same length, so copying the first over the second
  // makes one string appear twice. The footer checksum is then recomputed,
  // so only the dictionary check can catch it.
  const std::size_t trailer = bytes.size() - jsoncdn::shard::kTrailerBytes;
  std::uint64_t footer = 0;
  std::memcpy(&footer, bytes.data() + trailer, sizeof(footer));
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + footer, sizeof(count));
  ASSERT_GE(count, 2u);
  std::uint32_t len[2] = {};
  std::memcpy(len, bytes.data() + footer + 4, sizeof(len));
  ASSERT_EQ(len[0], len[1]);
  const std::size_t strings = footer + 4 + 4 * std::size_t{count};
  ASSERT_NE(bytes.compare(strings, len[0], bytes, strings + len[0], len[0]),
            0);
  bytes.replace(strings + len[0], len[0], bytes, strings, len[0]);
  const std::uint64_t checksum = jsoncdn::shard::payload_checksum(
      std::string_view(bytes).substr(footer, trailer - footer));
  std::memcpy(bytes.data() + trailer + 8, &checksum, sizeof(checksum));

  const auto corrupt = path("duplicate.jlog");
  std::ofstream(corrupt, std::ios::binary) << bytes;
  try {
    ShardReader reader(corrupt);
    FAIL() << "a dictionary holding one string twice was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate dictionary entry"), std::string::npos)
        << what;
    EXPECT_NE(what.find(corrupt), std::string::npos) << what;
  }
}

TEST_F(TempDir, WriterMemoryStaysBoundedByChunk) {
  // The pending table never holds more than chunk_rows rows.
  const auto file = path("store.jlog");
  ShardWriterOptions options;
  options.chunk_rows = 128;
  ShardWriter writer(file, options);
  const auto workload = small_workload(1000);
  std::uint64_t appended = 0;
  jsoncdn::shard::synth_records(workload, [&](const SynthFields& f) {
    writer.append_fields(f.timestamp, f.client_id, f.user_agent, f.method,
                         f.url, f.domain, f.content_type, f.status,
                         f.response_bytes, f.request_bytes, f.cache_status,
                         f.edge_id);
    ++appended;
    EXPECT_EQ(writer.rows_appended(), appended);
  });
  const auto stats = writer.finalize();
  EXPECT_EQ(stats.rows, 1000u);
  EXPECT_EQ(stats.chunks, (1000u + 127u) / 128u);
  EXPECT_THROW(writer.finalize(), std::runtime_error);
}

}  // namespace
