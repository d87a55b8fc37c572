// Out-of-core reader for the `.jlog` v2 chunk store: mmap the file, verify
// the trailer/footer, load dictionaries + chunk directory, then decode only
// the chunks a scan's zone-map predicate selects — one chunk at a time into
// a reusable scratch LogTable. Peak memory is dictionaries + directory +
// one decoded chunk, independent of file size; processed pages are released
// back to the kernel (madvise) as the scan moves forward, so resident set
// stays flat over multi-GB files.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "logs/csv.h"
#include "logs/table.h"
#include "logs/zerocopy.h"
#include "shard/format.h"

namespace jsoncdn::shard {

// Pushdown predicate a scan evaluates twice: per chunk against the zone map
// (skip without decoding) and per row after decode. Zone pruning is
// conservative, so pruned and unpruned scans select identical rows.
struct ScanPredicate {
  double min_time = -std::numeric_limits<double>::infinity();
  double max_time = std::numeric_limits<double>::infinity();
  // Wanted symbols per keyed column, sorted ascending; empty = no
  // constraint. Symbols are file-global (resolve strings through
  // ShardReader::dictionaries() first).
  std::vector<std::uint32_t> url_symbols;
  std::vector<std::uint32_t> ctype_symbols;
  // Test hook: false decodes every chunk and relies on the row filter only.
  bool use_zone_maps = true;

  [[nodiscard]] bool selects(const ChunkMeta& meta) const noexcept;
  [[nodiscard]] bool selects_row(const logs::LogTable& chunk,
                                 std::uint32_t row) const noexcept;
};

struct ScanStats {
  std::uint32_t chunks_total = 0;
  std::uint32_t chunks_pruned = 0;   // skipped via zone map, never decoded
  std::uint32_t chunks_scanned = 0;  // decoded and row-filtered
  std::uint64_t rows_scanned = 0;    // rows decoded
  std::uint64_t rows_selected = 0;   // rows passing the row predicate
  std::uint64_t bytes_decoded = 0;   // compressed payload bytes touched
};

class ShardReader {
 public:
  // Maps and validates `path` up to (not including) chunk payloads: magics,
  // footer checksum, dictionaries, and a chunk directory whose payloads
  // must tile [magic, footer) exactly — every byte of the file is covered
  // by some check. Throws std::runtime_error on any violation.
  // `max_memory_bytes` (0 = default) tunes how eagerly scanned-past pages
  // are released to the kernel.
  explicit ShardReader(const std::string& path,
                       std::uint64_t max_memory_bytes = 0);

  [[nodiscard]] std::uint64_t row_count() const noexcept { return row_count_; }
  [[nodiscard]] std::uint32_t chunk_count() const noexcept {
    return static_cast<std::uint32_t>(directory_.size());
  }
  [[nodiscard]] std::uint32_t chunk_target_rows() const noexcept {
    return chunk_target_rows_;
  }
  [[nodiscard]] const std::vector<ChunkMeta>& chunks() const noexcept {
    return directory_;
  }
  // The file's dictionaries, hosted by the decode scratch table. Use these
  // to resolve predicate strings to symbols (StringInterner::find — never
  // allocates, returns kNoSymbol for absent strings).
  [[nodiscard]] const logs::LogTable& dictionaries() const noexcept {
    return scratch_;
  }

  // Scans the file in chunk order, invoking `fn(chunk, selected)` for every
  // chunk the predicate's zone map keeps, where `selected` lists the rows
  // of `chunk` passing the row predicate (possibly empty — pruning is
  // conservative). Both arguments are valid only during the call; the
  // chunk table is the reader's scratch and is overwritten by the next
  // chunk. Throws on any corruption in a decoded chunk.
  ScanStats scan(
      const ScanPredicate& predicate,
      const std::function<void(const logs::LogTable& chunk,
                               std::span<const std::uint32_t> selected)>& fn);

  // Materializes the whole file as one LogTable (the batch-mode path).
  // Throws when row_count exceeds the u32 row-index range. Fills *report as
  // if a clean TSV of the same rows had been ingested (header_seen, records
  // == row count), so tools report ingest state uniformly across formats.
  [[nodiscard]] logs::LogTable read_all(logs::IngestReport* report = nullptr);

  // Approximate heap held by the reader (dictionaries + directory + scratch
  // columns) — what stays resident between chunks.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

 private:
  void release_scanned_pages(std::uint64_t scanned_up_to);

  std::string path_;
  std::unique_ptr<logs::MappedFile> file_;
  std::uint64_t footer_offset_ = 0;
  std::uint32_t chunk_target_rows_ = 0;
  std::uint64_t row_count_ = 0;
  std::vector<ChunkMeta> directory_;
  logs::LogTable scratch_;  // dictionaries live here; rows cycle per chunk
  std::vector<std::uint32_t> selected_;
  std::uint64_t advise_interval_ = 0;  // 0 = page release disabled
  std::uint64_t advise_mark_ = 0;      // file offset already released
};

// What kind of log file `path` holds, decided by its leading magic (never
// by extension). Anything unreadable, shorter than a magic, or without the
// v2 magic is kText — the TSV reader then produces the authoritative error.
// A file opening with the retired v1 magic throws std::runtime_error naming
// the file and the commands that regenerate it as v2.
enum class LogFormat { kText, kJlogV2 };
[[nodiscard]] LogFormat detect_log_format(const std::string& path);

// Loads any supported log format into a LogTable, dispatching on the
// leading magic (detect_log_format): text logs go through the zero-copy
// TSV path with `options`, .jlog v2 through ShardReader::read_all (which
// ignores `options` — binary corruption is structural, never permissively
// skipped). The one loader every tool shares.
[[nodiscard]] logs::LogTable load_table_auto(
    const std::string& path, const logs::IngestOptions& options = {},
    logs::IngestReport* report = nullptr);

}  // namespace jsoncdn::shard
