// Log (de)serialization as TSV — one record per line, tab-separated, with
// URL-style escaping of tabs/newlines inside fields. jsoncdn-generate writes
// logs through a LogWriter; the zero-copy ingest (logs/zerocopy.h) reads
// them back into a LogTable with the line parser and ingest accounting
// declared here. Round-trip is lossless (property-tested).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "logs/record.h"

namespace jsoncdn::logs {

// Header line identifying the column layout / format version.
[[nodiscard]] std::string_view log_header() noexcept;

// Serializes one record to a single line (no trailing newline).
[[nodiscard]] std::string to_line(const LogRecord& record);

// Decodes one escaped field back to its raw bytes: the exact inverse of the
// writer's escaping (%XX only). Deliberately NOT http::url_decode — form
// decoding also folds '+' to space, which would corrupt legitimate '+' bytes
// in UA strings like "Scrapy/2.11.0 (+https://scrapy.org)" and break joins
// against the truth sidecar's client keys.
[[nodiscard]] std::string unescape_field(std::string_view field);

// Parses one line. Returns nullopt on malformed input (wrong column count,
// non-numeric numerics, unknown enums) — malformed log lines are data errors,
// skipped and counted by the ingest, never exceptions. A trailing '\r'
// (CRLF line ending) is tolerated; files without a final newline parse the
// last row like any other.
[[nodiscard]] std::optional<LogRecord> from_line(std::string_view line);

// Same, but on failure stores a short machine-readable reason (one of
// "column-count", "bad-timestamp", "bad-method", "bad-status",
// "bad-response-bytes", "bad-request-bytes", "bad-cache-status",
// "bad-edge-id") into *reason. Reasons are stable identifiers — the ingest
// report aggregates by them.
[[nodiscard]] std::optional<LogRecord> from_line(std::string_view line,
                                                 std::string* reason);

// One validated line with the string fields still *escaped*: views into the
// caller's line buffer, zero copies. This is the parse layer shared by
// from_line (which unescapes into an owning LogRecord) and the zero-copy
// columnar ingest (which unescapes straight into the interner, skipping the
// copy entirely when a field contains no escape bytes). Numeric and enum
// fields are fully validated and parsed.
struct LineFields {
  double timestamp = 0.0;
  std::string_view client_id;    // escaped
  std::string_view user_agent;   // escaped
  http::Method method = http::Method::kGet;
  std::string_view url;          // escaped
  std::string_view domain;       // escaped
  std::string_view content_type; // escaped
  int status = 200;
  std::uint64_t response_bytes = 0;
  std::uint64_t request_bytes = 0;
  CacheStatus cache_status = CacheStatus::kNotCacheable;
  std::uint32_t edge_id = 0;
};

// Parses one line into `out` (tolerating a trailing '\r'), applying exactly
// the validation order and failure reasons documented on from_line. Returns
// false and sets *reason (when non-null) on malformed input. Allocates only
// into *reason (a reused buffer amortizes that to zero).
[[nodiscard]] bool parse_line(std::string_view line, LineFields& out,
                              std::string* reason);

// How an ingest run treats malformed lines.
enum class ParseMode {
  kPermissive,  // skip, count, optionally quarantine — analysis proceeds
  kStrict,      // first malformed line throws with its line number
};

// Receives rejected lines during permissive ingestion, so corrupted input is
// preserved for inspection instead of silently dropped.
class QuarantineSink {
 public:
  virtual ~QuarantineSink() = default;
  virtual void quarantine(std::uint64_t line_number, std::string_view line,
                          std::string_view reason) = 0;
};

// Quarantine sink writing one TSV row per rejected line:
// <line_number>\t<reason>\t<raw line>.
class StreamQuarantine final : public QuarantineSink {
 public:
  explicit StreamQuarantine(std::ostream& out);
  void quarantine(std::uint64_t line_number, std::string_view line,
                  std::string_view reason) override;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::ostream& out_;
  std::uint64_t count_ = 0;
};

struct IngestOptions {
  ParseMode mode = ParseMode::kPermissive;
  // Non-owning; may be nullptr. Only consulted in permissive mode (strict
  // mode throws before anything could be quarantined).
  QuarantineSink* quarantine = nullptr;
  // Permissive-mode error budget: ingestion aborts (throws) once more than
  // this many lines have been rejected. Guards against feeding an analysis
  // a file that is mostly garbage.
  std::uint64_t max_malformed = UINT64_MAX;
};

// What an ingest run saw — the analyzer reports this as the ingest-error
// budget of the dataset it is about to characterize.
struct IngestReport {
  std::uint64_t lines = 0;      // every input line, incl. header/comments
  std::uint64_t records = 0;    // well-formed records accepted
  std::uint64_t malformed = 0;  // lines rejected
  bool header_seen = false;     // a "#jsoncdn-log" header line was present
  // reason identifier -> rejected-line count; deterministic iteration order.
  std::map<std::string, std::uint64_t> reasons;

  // Rejected share of data lines (header/comment lines excluded).
  [[nodiscard]] double error_share() const noexcept {
    const auto data_lines = records + malformed;
    return data_lines == 0 ? 0.0
                           : static_cast<double>(malformed) /
                                 static_cast<double>(data_lines);
  }
  void merge(const IngestReport& other);
};

// Renders the ingest report as a short plain-text block for tools.
[[nodiscard]] std::string render_ingest_report(const IngestReport& report);

// Streams records to an ostream, writing the header first.
class LogWriter {
 public:
  explicit LogWriter(std::ostream& out);
  void write(const LogRecord& record);
  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }

 private:
  std::ostream& out_;
  std::uint64_t written_ = 0;
};

}  // namespace jsoncdn::logs
