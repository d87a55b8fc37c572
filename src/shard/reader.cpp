#include "shard/reader.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define JSONCDN_SHARD_HAVE_MADVISE 1
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "shard/chunk.h"

namespace jsoncdn::shard {

namespace {

// Whether the sorted wanted-symbol set intersects the chunk's inclusive
// [min_sym, max_sym] range — one lower_bound, no decode.
bool range_intersects(const std::vector<std::uint32_t>& wanted,
                      const SymbolRange& range) noexcept {
  const auto it = std::lower_bound(wanted.begin(), wanted.end(), range.min_sym);
  return it != wanted.end() && *it <= range.max_sym;
}

bool contains(const std::vector<std::uint32_t>& sorted,
              std::uint32_t sym) noexcept {
  return std::binary_search(sorted.begin(), sorted.end(), sym);
}

}  // namespace

void jlog_corrupt(const std::string& path, const char* what) {
  throw std::runtime_error("corrupt .jlog file " + path + ": " + what);
}

LogFormat detect_log_format(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  char head[kJlogV2Magic.size()] = {};
  is.read(head, sizeof(head));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(head))) {
    return LogFormat::kText;
  }
  const std::string_view magic(head, sizeof(head));
  if (magic == kJlogV2Magic) return LogFormat::kJlogV2;
  if (magic == "jlogcdn1") {
    // v1 files (uncompressed whole-table images) were always derived from
    // a TSV log or a generator run, so name how to rebuild one rather than
    // misreading the bytes as text.
    throw std::runtime_error(
        path + ": retired .jlog v1 file (magic jlogcdn1). Regenerate it as "
               ".jlog v2 with `jsoncdn-generate ... --jlog-v2 " +
        path + "` or `jsoncdn-jlog convert LOG.tsv " + path + "`");
  }
  return LogFormat::kText;
}

bool ScanPredicate::selects(const ChunkMeta& meta) const noexcept {
  if (meta.row_count == 0) return false;
  if (meta.max_ts < min_time || meta.min_ts > max_time) return false;
  if (!url_symbols.empty() &&
      !range_intersects(url_symbols, meta.symbols[kSymUrl])) {
    return false;
  }
  if (!ctype_symbols.empty() &&
      !range_intersects(ctype_symbols, meta.symbols[kSymContentType])) {
    return false;
  }
  return true;
}

bool ScanPredicate::selects_row(const logs::LogTable& chunk,
                                std::uint32_t row) const noexcept {
  const double t = chunk.timestamp(row);
  if (t < min_time || t > max_time) return false;
  if (!url_symbols.empty() && !contains(url_symbols, chunk.url_sym(row))) {
    return false;
  }
  if (!ctype_symbols.empty() &&
      !contains(ctype_symbols, chunk.content_type_sym(row))) {
    return false;
  }
  return true;
}

ShardReader::ShardReader(const std::string& path,
                         std::uint64_t max_memory_bytes)
    : path_(path) {
  try {
    file_ = std::make_unique<logs::MappedFile>(path_);
  } catch (const std::exception&) {
    throw std::runtime_error("cannot open .jlog file: " + path_);
  }
  const std::string_view bytes = file_->view();
  if (bytes.size() < kJlogV2Magic.size() + kTrailerBytes) {
    jlog_corrupt(path_, "file shorter than v2 magic + trailer");
  }
  if (bytes.substr(0, kJlogV2Magic.size()) != kJlogV2Magic) {
    jlog_corrupt(path_, "bad magic (not a .jlog v2 file)");
  }
  if (bytes.substr(bytes.size() - kJlogV2TailMagic.size()) !=
      kJlogV2TailMagic) {
    jlog_corrupt(path_, "bad tail magic (truncated v2 file)");
  }

  BinaryReader trailer(bytes.substr(bytes.size() - kTrailerBytes), path_);
  footer_offset_ = trailer.pod<std::uint64_t>();
  const auto footer_checksum = trailer.pod<std::uint64_t>();
  if (footer_offset_ < kJlogV2Magic.size() ||
      footer_offset_ > bytes.size() - kTrailerBytes) {
    jlog_corrupt(path_, "footer offset out of range");
  }
  const std::string_view footer_bytes = bytes.substr(
      footer_offset_, bytes.size() - kTrailerBytes - footer_offset_);
  if (payload_checksum(footer_bytes) != footer_checksum) {
    jlog_corrupt(path_, "footer checksum mismatch");
  }

  BinaryReader footer(footer_bytes, path_);
  ChunkCodec::read_dictionaries(footer, scratch_, path_);
  chunk_target_rows_ = footer.pod<std::uint32_t>();
  const auto chunk_count = footer.pod<std::uint32_t>();
  directory_.reserve(chunk_count);
  // The directory size is bounds-checked up front so a huge forged count
  // fails fast instead of looping through pod() throws.
  footer.need(static_cast<std::size_t>(chunk_count) * kChunkMetaBytes,
              "truncated chunk directory");
  for (std::uint32_t c = 0; c < chunk_count; ++c) {
    directory_.push_back(read_chunk_meta(footer));
  }
  row_count_ = footer.pod<std::uint64_t>();
  if (!footer.exhausted()) {
    jlog_corrupt(path_, "trailing bytes in footer");
  }
  if (chunk_count > 0 && chunk_target_rows_ == 0) {
    jlog_corrupt(path_, "chunk target rows is zero");
  }

  // Chunk payloads must tile [magic, footer) exactly: no gaps (bytes no
  // checksum covers), no overlaps, in file order.
  std::uint64_t expected = kJlogV2Magic.size();
  std::uint64_t rows = 0;
  for (const auto& meta : directory_) {
    if (meta.offset != expected) {
      jlog_corrupt(path_, "chunk directory does not tile the file");
    }
    if (meta.payload_bytes > footer_offset_ - expected) {
      jlog_corrupt(path_, "chunk payload exceeds file bounds");
    }
    expected += meta.payload_bytes;
    rows += meta.row_count;
  }
  if (expected != footer_offset_) {
    jlog_corrupt(path_, "chunk payloads do not reach the footer");
  }
  if (rows != row_count_) {
    jlog_corrupt(path_, "directory row sum does not match row count");
  }

  // Page-release cadence: default every 64 MiB of scanned payload; a tight
  // --max-memory budget shrinks the interval so the scan never carries more
  // than a fraction of the budget in scanned-past pages.
  if (file_->is_mapped()) {
    constexpr std::uint64_t kDefaultInterval = 64ull << 20;
    advise_interval_ = kDefaultInterval;
    if (max_memory_bytes > 0) {
      advise_interval_ = std::clamp<std::uint64_t>(max_memory_bytes / 8,
                                                   1ull << 20, kDefaultInterval);
    }
  }
  advise_mark_ = kJlogV2Magic.size();
}

void ShardReader::release_scanned_pages(std::uint64_t scanned_up_to) {
#if JSONCDN_SHARD_HAVE_MADVISE
  if (advise_interval_ == 0 || scanned_up_to < advise_mark_ ||
      scanned_up_to - advise_mark_ < advise_interval_) {
    return;
  }
  const auto page =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(file_->data());
  // Round the release range to whole pages inside [advise_mark_,
  // scanned_up_to): never touch the page the next chunk starts in.
  const std::uintptr_t lo = (base + advise_mark_ + page - 1) / page * page;
  const std::uintptr_t hi = (base + scanned_up_to) / page * page;
  if (hi > lo) {
    // Advisory only — a failure just means pages stay resident longer.
    ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
  }
  advise_mark_ = scanned_up_to;
#else
  (void)scanned_up_to;
#endif
}

ScanStats ShardReader::scan(
    const ScanPredicate& predicate,
    const std::function<void(const logs::LogTable& chunk,
                             std::span<const std::uint32_t> selected)>& fn) {
  ScanStats stats;
  stats.chunks_total = chunk_count();
  const std::string_view bytes = file_->view();
  for (const auto& meta : directory_) {
    if (predicate.use_zone_maps && !predicate.selects(meta)) {
      ++stats.chunks_pruned;
      continue;
    }
    const std::string_view payload =
        bytes.substr(meta.offset, meta.payload_bytes);
    scratch_.clear_rows();
    ChunkCodec::decode(payload, meta, scratch_, path_);
    ++stats.chunks_scanned;
    stats.rows_scanned += meta.row_count;
    stats.bytes_decoded += meta.payload_bytes;

    selected_.clear();
    for (std::uint32_t row = 0; row < meta.row_count; ++row) {
      if (predicate.selects_row(scratch_, row)) selected_.push_back(row);
    }
    stats.rows_selected += selected_.size();
    fn(scratch_, selected_);
    release_scanned_pages(meta.offset + meta.payload_bytes);
  }
  return stats;
}

logs::LogTable ShardReader::read_all(logs::IngestReport* report) {
  if (row_count_ > 0xffffffffULL) {
    jlog_corrupt(path_, "row count exceeds u32 range");
  }
  // A fresh table needs its own dictionaries (interners are not copyable):
  // re-parse them from the footer, then append every chunk.
  logs::LogTable table;
  const std::string_view bytes = file_->view();
  BinaryReader footer(
      bytes.substr(footer_offset_,
                   bytes.size() - kTrailerBytes - footer_offset_),
      path_);
  ChunkCodec::read_dictionaries(footer, table, path_);
  table.reserve(static_cast<std::size_t>(row_count_));
  for (const auto& meta : directory_) {
    ChunkCodec::decode(bytes.substr(meta.offset, meta.payload_bytes), meta,
                       table, path_);
  }
  if (report != nullptr) {
    logs::IngestReport r;
    r.lines = table.size();
    r.records = table.size();
    r.header_seen = true;  // the magic is the binary format's header
    *report = std::move(r);
  }
  return table;
}

std::size_t ShardReader::resident_bytes() const noexcept {
  return scratch_.memory_bytes() + directory_.capacity() * sizeof(ChunkMeta) +
         selected_.capacity() * sizeof(std::uint32_t);
}

logs::LogTable load_table_auto(const std::string& path,
                               const logs::IngestOptions& options,
                               logs::IngestReport* report) {
  if (detect_log_format(path) == LogFormat::kJlogV2) {
    return ShardReader(path).read_all(report);
  }
  return logs::read_log_table(path, options, report);
}

}  // namespace jsoncdn::shard
