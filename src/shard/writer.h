// Streaming writer for the `.jlog` v2 chunk store (layout in format.h).
//
// The writer never holds the table: rows accumulate in one pending chunk
// (dictionaries are file-global and persist across chunks), each full chunk
// is compressed and flushed to disk, and finalize() closes the file with
// the footer (dictionaries + chunk directory) and trailer. Rows given one
// at a time are staged with their strings first and interned a chunk at a
// time (logs::RowBatch). Peak writer memory is the dictionaries plus
// chunk_rows rows, staged and interned — a 100M-record file streams through
// a few tens of MiB.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "logs/record.h"
#include "logs/table.h"
#include "shard/format.h"

namespace jsoncdn::shard {

struct ShardWriterOptions {
  // Rows per full chunk (the last chunk may be short). The default matches
  // the streaming study's default --chunk-size, so an out-of-core scan over
  // the file reproduces the in-memory ingest geometry exactly.
  std::uint32_t chunk_rows = 65536;
};

struct ShardWriteStats {
  std::uint64_t rows = 0;
  std::uint32_t chunks = 0;
  std::uint64_t file_bytes = 0;     // total, incl. footer + trailer
  std::uint64_t payload_bytes = 0;  // compressed chunk payloads only
};

class ShardWriter {
 public:
  // Opens `path` for writing and emits the leading magic. Throws
  // std::runtime_error when the file cannot be created or chunk_rows is 0.
  explicit ShardWriter(const std::string& path, ShardWriterOptions options = {});

  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;

  // Stages one row; a chunk is interned and flushed whenever chunk_rows
  // accumulate.
  void append_fields(double timestamp, std::string_view client_id,
                     std::string_view user_agent, http::Method method,
                     std::string_view url, std::string_view domain,
                     std::string_view content_type, int status,
                     std::uint64_t response_bytes, std::uint64_t request_bytes,
                     logs::CacheStatus cache_status, std::uint32_t edge_id);

  // Appends every row of an in-memory table, after any staged rows.
  void append(const logs::LogTable& table);

  // Flushes the pending chunk, writes footer + trailer, and closes the
  // file. Must be called exactly once; throws on write failure. A writer
  // destroyed without finalize() leaves a trailer-less (unreadable) file.
  ShardWriteStats finalize();

  [[nodiscard]] std::uint64_t rows_appended() const noexcept {
    return rows_total_ + pending_.size() + staged_.size();
  }

 private:
  // Interns the staged rows into the pending chunk, in one batch.
  void resolve_staged();
  void flush_chunk();

  std::string path_;
  std::ofstream os_;
  BinaryWriter out_;
  ShardWriterOptions options_;
  logs::LogTable pending_;  // rows of the open chunk; dicts are file-global
  logs::RowBatch staged_;   // rows of the open chunk not yet in pending_
  std::vector<ChunkMeta> directory_;
  std::string payload_buf_;
  std::uint64_t rows_total_ = 0;
  std::uint64_t payload_total_ = 0;
  bool finalized_ = false;
};

// Convenience: writes the whole table as one v2 file.
ShardWriteStats write_jlog_v2(const std::string& path,
                              const logs::LogTable& table,
                              ShardWriterOptions options = {});

}  // namespace jsoncdn::shard
