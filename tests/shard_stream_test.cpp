// Equivalence of the out-of-core v2 streaming path with the in-memory
// streaming study: with matching chunk geometry the rendered summary is
// byte-identical, and zone-map pruning never changes a windowed result.
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "logs/table.h"
#include "shard/reader.h"
#include "shard/synth.h"
#include "shard/writer.h"
#include "stream/streaming_study.h"

namespace {

using jsoncdn::logs::LogTable;
using jsoncdn::shard::ScanPredicate;
using jsoncdn::shard::ShardReader;
using jsoncdn::shard::ShardWriter;
using jsoncdn::shard::ShardWriterOptions;
using jsoncdn::shard::SynthFields;
using jsoncdn::shard::SynthOptions;
using jsoncdn::stream::StreamingConfig;
using jsoncdn::stream::StreamingStudy;

constexpr std::uint32_t kChunkRows = 1024;

SynthOptions workload() {
  SynthOptions options;
  options.records = 20000;
  options.seed = 11;
  options.clients = 800;
  options.urls = 300;
  options.domains = 24;
  options.duration = 20000.0;
  return options;
}

class StreamEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test process: ctest runs each case as its own process,
    // and a shared path would let one case truncate a store another case
    // has mapped (SIGBUS in the reader).
    file_ = (std::filesystem::temp_directory_path() /
             ("jsoncdn_shard_stream_test_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              "_" + std::to_string(::getpid()) + ".jlog"))
                .string();
    ShardWriterOptions writer_options;
    writer_options.chunk_rows = kChunkRows;
    ShardWriter writer(file_, writer_options);
    jsoncdn::shard::synth_records(workload(), [&](const SynthFields& f) {
      table_.append_fields(f.timestamp, f.client_id, f.user_agent, f.method,
                           f.url, f.domain, f.content_type, f.status,
                           f.response_bytes, f.request_bytes, f.cache_status,
                           f.edge_id);
      writer.append_fields(f.timestamp, f.client_id, f.user_agent, f.method,
                           f.url, f.domain, f.content_type, f.status,
                           f.response_bytes, f.request_bytes, f.cache_status,
                           f.edge_id);
    });
    writer.finalize();
  }
  void TearDown() override { std::filesystem::remove(file_); }

  // The in-memory streaming path of jsoncdn-analyze: ingest the table in
  // file order, `chunk_size` rows at a time, optionally time-windowed.
  [[nodiscard]] std::string in_memory_summary(std::size_t chunk_size,
                                              double from, double to) const {
    StreamingStudy study{StreamingConfig{}};
    std::vector<std::uint32_t> order;
    for (std::uint32_t i = 0; i < table_.size(); ++i) {
      if (table_.timestamp(i) >= from && table_.timestamp(i) <= to) {
        order.push_back(i);
      }
    }
    for (std::size_t begin = 0; begin < order.size(); begin += chunk_size) {
      const std::size_t len = std::min(chunk_size, order.size() - begin);
      study.ingest(table_, std::span<const std::uint32_t>(&order[begin], len));
    }
    return jsoncdn::stream::render_streaming_summary(study.summary());
  }

  // The out-of-core path: scan the v2 store, ingest each decoded chunk's
  // selected rows in `chunk_size` sub-spans.
  [[nodiscard]] std::string out_of_core_summary(std::size_t chunk_size,
                                                const ScanPredicate& predicate,
                                                ShardReader& reader) const {
    StreamingStudy study{StreamingConfig{}};
    reader.scan(predicate, [&](const LogTable& chunk,
                               std::span<const std::uint32_t> selected) {
      for (std::size_t begin = 0; begin < selected.size();
           begin += chunk_size) {
        const std::size_t len = std::min(chunk_size, selected.size() - begin);
        study.ingest(chunk, std::span<const std::uint32_t>(
                                selected.data() + begin, len));
      }
    });
    return jsoncdn::stream::render_streaming_summary(study.summary());
  }

  std::string file_;
  LogTable table_;
};

TEST_F(StreamEquivalence, FullScanMatchesInMemoryStreamingByteForByte) {
  ShardReader reader(file_);
  // chunk_size == the store's chunk_rows: identical ingest geometry, so the
  // two-tier determinism contract promises a byte-identical summary.
  EXPECT_EQ(in_memory_summary(kChunkRows, -1e300, 1e300),
            out_of_core_summary(kChunkRows, ScanPredicate{}, reader));
  // A divisor of chunk_rows also reproduces the geometry (sub-spans align).
  EXPECT_EQ(in_memory_summary(256, -1e300, 1e300),
            out_of_core_summary(256, ScanPredicate{}, reader));
}

TEST_F(StreamEquivalence, PrunedWindowMatchesUnprunedByteForByte) {
  ShardReader reader(file_);
  ScanPredicate window;
  window.min_time = 5000.0;
  window.max_time = 9000.0;
  ScanPredicate no_zone = window;
  no_zone.use_zone_maps = false;
  const auto pruned = out_of_core_summary(kChunkRows, window, reader);
  const auto unpruned = out_of_core_summary(kChunkRows, no_zone, reader);
  EXPECT_EQ(pruned, unpruned);
}

TEST_F(StreamEquivalence, WindowedScanSelectsExactlyTheWindowRows) {
  ShardReader reader(file_);
  ScanPredicate window;
  window.min_time = 2500.0;
  window.max_time = 7500.0;
  std::uint64_t expected = 0;
  for (std::uint32_t i = 0; i < table_.size(); ++i) {
    const double t = table_.timestamp(i);
    if (t >= window.min_time && t <= window.max_time) ++expected;
  }
  const auto stats = reader.scan(
      window, [](const LogTable&, std::span<const std::uint32_t>) {});
  EXPECT_EQ(stats.rows_selected, expected);
  EXPECT_GT(stats.chunks_pruned, 0u);
  // The time-ordered workload keeps zone maps tight: a quarter-length
  // window must prune at least half of the chunks.
  EXPECT_GE(stats.chunks_pruned, stats.chunks_total / 2);
}

TEST_F(StreamEquivalence, ScratchReuseKeepsReaderMemoryFlat) {
  ShardReader reader(file_);
  std::size_t after_first_chunk = 0;
  std::size_t chunks_seen = 0;
  reader.scan(ScanPredicate{}, [&](const LogTable&,
                                   std::span<const std::uint32_t>) {
    ++chunks_seen;
    if (chunks_seen == 1) after_first_chunk = reader.resident_bytes();
  });
  ASSERT_GT(chunks_seen, 10u);
  // The scratch table is reused: resident footprint after the last chunk
  // matches the first chunk's (no growth proportional to chunks scanned).
  EXPECT_LE(reader.resident_bytes(), after_first_chunk * 2);
}

}  // namespace
