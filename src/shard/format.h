// On-disk layout of the `.jlog` v2 tiered chunk store (magic "jlogcdn2").
//
// The file is write-once, append-friendly, and readable with one mmap:
//
//   magic            8 bytes  "jlogcdn2"
//   chunk payloads   back-to-back compressed column chunks (see chunk.h)
//   footer           written last, once every dictionary is known:
//     6 dictionaries     each a block of count u32, count × length u32,
//                        then the concatenated string bytes, in order
//                        url, client_id, user_agent, domain, content_type,
//                        client_key — symbols are file-global
//     chunk_target_rows  u32   rows per full chunk (last chunk may be short)
//     chunk_count        u32
//     chunk directory    chunk_count × ChunkMeta (fixed 92 bytes each):
//                          offset u64 · payload_bytes u64 · checksum u64 ·
//                          row_count u32 · min_ts f64 · max_ts f64 ·
//                          6 × (min_sym u32, max_sym u32)
//     row_count          u64   total rows (must equal the directory sum)
//   trailer          fixed 24 bytes closing the file:
//     footer_offset      u64   byte offset of the footer
//     footer_checksum    u64   fnv1a64 over the footer bytes
//     tail magic         8 bytes "jlogend2"
//
// Dictionaries and the chunk directory live in the *footer* so a writer can
// stream chunks without knowing the final dictionaries up front — writer
// memory is the dictionaries plus one pending chunk, never the table. A
// reader seeks to the trailer, verifies the footer checksum, loads
// dictionaries + directory, and then touches only the chunk payloads its
// zone-map predicate selects.
//
// Every byte of the file is covered by some check: the leading and tail
// magics, each payload's fnv1a64 in the (checksummed) directory, and the
// footer checksum — a single flipped bit anywhere fails the read.
//
// The ChunkMeta zone map is what predicate pushdown evaluates without
// decoding: a chunk can be skipped when its [min_ts, max_ts] misses the
// time window or when no wanted symbol falls inside a keyed column's
// [min_sym, max_sym]. Pruning is conservative — a surviving chunk may still
// contain zero matching rows; the row-level predicate re-filters after
// decode, so pruned and unpruned scans select identical rows.
//
// This module is the only one that knows the binary format. A file opening
// with the retired v1 magic (an uncompressed whole-table image) is rejected
// by detect_log_format (shard/reader.h) with the command that regenerates
// it as v2.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "stats/hash.h"

namespace jsoncdn::shard {

// Magics opening and closing a complete v2 file.
inline constexpr std::string_view kJlogV2Magic = "jlogcdn2";
inline constexpr std::string_view kJlogV2TailMagic = "jlogend2";

// Trailer: footer_offset u64 + footer_checksum u64 + tail magic.
inline constexpr std::size_t kTrailerBytes = 8 + 8 + 8;

// Indices into ChunkMeta::symbols, in footer dictionary order.
inline constexpr std::size_t kSymUrl = 0;
inline constexpr std::size_t kSymClientId = 1;
inline constexpr std::size_t kSymUserAgent = 2;
inline constexpr std::size_t kSymDomain = 3;
inline constexpr std::size_t kSymContentType = 4;
inline constexpr std::size_t kSymClientKey = 5;
inline constexpr std::size_t kSymbolColumns = 6;

// Inclusive symbol range of one keyed column within a chunk; {0, 0} for an
// empty chunk.
struct SymbolRange {
  std::uint32_t min_sym = 0;
  std::uint32_t max_sym = 0;
};

// One chunk-directory entry: where the payload lives plus the zone map the
// scan prunes against. Serialized field-by-field (fixed 92 bytes), never by
// struct memcpy — padding must not reach the file.
struct ChunkMeta {
  std::uint64_t offset = 0;         // payload start, from file byte 0
  std::uint64_t payload_bytes = 0;  // encoded length
  std::uint64_t checksum = 0;       // fnv1a64 over the payload bytes
  std::uint32_t row_count = 0;
  double min_ts = 0.0;  // zone map: inclusive timestamp range
  double max_ts = 0.0;
  std::array<SymbolRange, kSymbolColumns> symbols{};
};

inline constexpr std::size_t kChunkMetaBytes =
    8 + 8 + 8 + 4 + 8 + 8 + kSymbolColumns * 8;

// Payload checksum — FNV-1a 64 like every other stable hash in the repo.
[[nodiscard]] inline std::uint64_t payload_checksum(
    std::string_view bytes) noexcept {
  return stats::fnv1a64(bytes);
}

// Throws the uniform corruption error every .jlog check uses. Binary
// corruption is structural, so unlike TSV there is no per-line permissive
// skip: the first failed check rejects the file.
[[noreturn]] void jlog_corrupt(const std::string& path, const char* what);

// Bounds-checked little-endian cursor over an in-memory byte image (an
// mmapped file in practice). Every accessor throws via jlog_corrupt()
// instead of reading out of range.
class BinaryReader {
 public:
  BinaryReader(std::string_view bytes, const std::string& path) noexcept
      : data_(bytes.data()), size_(bytes.size()), path_(path) {}

  template <typename T>
  T pod() {
    T v;
    need(sizeof(T), "truncated scalar");
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> column(std::size_t count) {
    // Division-form bound is overflow-safe for attacker-chosen counts.
    if (count > (size_ - pos_) / sizeof(T)) {
      jlog_corrupt(path_, "truncated column");
    }
    std::vector<T> col(count);
    if (count > 0) std::memcpy(col.data(), data_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return col;
  }
  std::string_view bytes(std::size_t n) {
    need(n, "truncated dictionary bytes");
    const std::string_view v(data_ + pos_, n);
    pos_ += n;
    return v;
  }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }
  void need(std::size_t n, const char* what) const {
    if (n > size_ - pos_) jlog_corrupt(path_, what);
  }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const std::string& path_;
};

// Little-endian plain-old-data writer that counts the bytes it emits (the
// writer's chunk offsets are its running total).
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os) noexcept : os_(os) {}
  template <typename T>
  void pod(T v) {
    raw(&v, sizeof(T));
  }
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;
    os_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    written_ += n;
  }
  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }

 private:
  std::ostream& os_;
  std::uint64_t written_ = 0;
};

}  // namespace jsoncdn::shard
