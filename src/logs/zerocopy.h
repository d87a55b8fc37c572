// Zero-copy log ingestion: mmap the file (whole-file read fallback), walk it
// as string_views, and intern fields straight into a LogTable. No per-field
// std::string is ever built — unescaping only happens for the rare field
// that actually contains an escape byte, into one reused buffer.
//
// The ingest is hardened: it keeps line accounting, '#' comment and
// "#jsoncdn-log" header/version handling, strict/permissive modes,
// quarantine callbacks, per-reason counts, and error-budget enforcement
// (the IngestOptions/IngestReport contract in logs/csv.h).
#pragma once

#include <cstddef>
#include <string>

#include "logs/csv.h"
#include "logs/table.h"

namespace jsoncdn::logs {

// Read-only byte view of a file. Tries mmap first (the kernel pages data in
// as the parse walks it — no read()-into-buffer copy); falls back to one
// whole-file read when mmap is unavailable or fails (pipes, some
// filesystems). Non-copyable; unmaps/frees on destruction.
class MappedFile {
 public:
  // Throws std::runtime_error when the file cannot be opened.
  explicit MappedFile(const std::string& path);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const char* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::string_view view() const noexcept {
    return std::string_view(data_, size_);
  }
  [[nodiscard]] bool is_mapped() const noexcept { return mapped_; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;      // true: munmap on destruction; false: delete[]
};

// Loads a whole log file into a LogTable via the zero-copy path. Throws
// when the file cannot be opened, on an unsupported "#jsoncdn-log" header
// version, on the first malformed line in strict mode, and when the
// permissive error budget is exceeded; otherwise malformed lines are
// counted/quarantined into *report.
[[nodiscard]] LogTable read_log_table(const std::string& path,
                                      const IngestOptions& options = {},
                                      IngestReport* report = nullptr);

}  // namespace jsoncdn::logs
