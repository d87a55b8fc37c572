#include "shard/writer.h"

#include <sstream>
#include <stdexcept>

#include "shard/chunk.h"

namespace jsoncdn::shard {

ShardWriter::ShardWriter(const std::string& path, ShardWriterOptions options)
    : path_(path),
      os_(path, std::ios::binary | std::ios::trunc),
      out_(os_),
      options_(options) {
  if (options_.chunk_rows == 0) {
    throw std::runtime_error("shard writer: chunk_rows must be positive");
  }
  if (!os_) {
    throw std::runtime_error("cannot create .jlog file: " + path_);
  }
  out_.raw(kJlogV2Magic.data(), kJlogV2Magic.size());
  pending_.reserve(options_.chunk_rows);
}

void ShardWriter::append_fields(
    double timestamp, std::string_view client_id, std::string_view user_agent,
    http::Method method, std::string_view url, std::string_view domain,
    std::string_view content_type, int status, std::uint64_t response_bytes,
    std::uint64_t request_bytes, logs::CacheStatus cache_status,
    std::uint32_t edge_id) {
  staged_.push(timestamp, client_id, user_agent, method, url, domain,
               content_type, status, response_bytes, request_bytes,
               cache_status, edge_id);
  if (pending_.size() + staged_.size() >= options_.chunk_rows) flush_chunk();
}

void ShardWriter::append(const logs::LogTable& table) {
  resolve_staged();
  logs::LogTable::SymbolMap map;
  for (std::size_t i = 0; i < table.size(); ++i) {
    pending_.append_row(table, static_cast<logs::LogTable::RowIndex>(i), map);
    if (pending_.size() >= options_.chunk_rows) flush_chunk();
  }
}

void ShardWriter::resolve_staged() {
  pending_.append_batch(staged_);
  staged_.clear();
}

void ShardWriter::flush_chunk() {
  resolve_staged();
  if (pending_.empty()) return;
  payload_buf_.clear();
  ChunkMeta meta = ChunkCodec::encode(
      pending_, 0, static_cast<std::uint32_t>(pending_.size()), payload_buf_);
  meta.offset = out_.written();
  out_.raw(payload_buf_.data(), payload_buf_.size());
  rows_total_ += meta.row_count;
  payload_total_ += meta.payload_bytes;
  directory_.push_back(meta);
  pending_.clear_rows();
}

ShardWriteStats ShardWriter::finalize() {
  if (finalized_) {
    throw std::runtime_error("shard writer: finalize() called twice");
  }
  finalized_ = true;
  flush_chunk();

  // The footer is assembled in memory first so its checksum covers exactly
  // the bytes that land in the file.
  std::ostringstream footer_os(std::ios::binary);
  {
    BinaryWriter footer(footer_os);
    ChunkCodec::write_dictionaries(footer, pending_);
    footer.pod<std::uint32_t>(options_.chunk_rows);
    footer.pod<std::uint32_t>(static_cast<std::uint32_t>(directory_.size()));
    for (const auto& meta : directory_) write_chunk_meta(footer, meta);
    footer.pod<std::uint64_t>(rows_total_);
  }
  const std::string footer_bytes = footer_os.str();
  const std::uint64_t footer_offset = out_.written();
  out_.raw(footer_bytes.data(), footer_bytes.size());
  out_.pod<std::uint64_t>(footer_offset);
  out_.pod<std::uint64_t>(payload_checksum(footer_bytes));
  out_.raw(kJlogV2TailMagic.data(), kJlogV2TailMagic.size());

  os_.flush();
  if (!os_) {
    throw std::runtime_error("cannot write .jlog file: " + path_);
  }
  ShardWriteStats stats;
  stats.rows = rows_total_;
  stats.chunks = static_cast<std::uint32_t>(directory_.size());
  stats.file_bytes = out_.written();
  stats.payload_bytes = payload_total_;
  return stats;
}

ShardWriteStats write_jlog_v2(const std::string& path,
                              const logs::LogTable& table,
                              ShardWriterOptions options) {
  ShardWriter writer(path, options);
  writer.append(table);
  return writer.finalize();
}

}  // namespace jsoncdn::shard
