#include "logs/zerocopy.h"

#include <fstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define JSONCDN_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace jsoncdn::logs {

namespace {

// Reads the whole file into a heap buffer — the portable fallback.
char* read_whole_file(const std::string& path, std::size_t& size) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open log file: " + path);
  const auto end = in.tellg();
  if (end < 0) throw std::runtime_error("cannot open log file: " + path);
  size = static_cast<std::size_t>(end);
  char* buf = new char[size > 0 ? size : 1];
  in.seekg(0);
  if (size > 0 && !in.read(buf, static_cast<std::streamsize>(size))) {
    delete[] buf;
    throw std::runtime_error("cannot read log file: " + path);
  }
  return buf;
}

}  // namespace

MappedFile::MappedFile(const std::string& path) {
#if JSONCDN_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open log file: " + path);
  struct stat st{};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
    if (p != MAP_FAILED) {
      ::close(fd);
      data_ = static_cast<const char*>(p);
      size_ = static_cast<std::size_t>(st.st_size);
      mapped_ = true;
      // The parse is one sequential pass; let readahead run ahead of it.
      ::madvise(p, size_, MADV_SEQUENTIAL);
      return;
    }
  }
  ::close(fd);
#endif
  std::size_t size = 0;
  data_ = read_whole_file(path, size);
  size_ = size;
  mapped_ = false;
}

MappedFile::~MappedFile() {
#if JSONCDN_HAVE_MMAP
  if (mapped_) {
    ::munmap(const_cast<char*>(data_), size_);
    return;
  }
#endif
  delete[] data_;
}

namespace {

// True when unescaping could change the field: only '%' starts an escape
// (unescape_field is the exact inverse of the writer — no '+' folding).
// Fields without that byte intern directly off the mapped file — the common
// case by far.
inline bool needs_unescape(std::string_view field) noexcept {
  return field.find('%') != std::string_view::npos;
}

inline std::string_view unescape_into(std::string_view field,
                                      std::string& scratch) {
  if (!needs_unescape(field)) return field;
  scratch = unescape_field(field);
  return scratch;
}

}  // namespace

LogTable read_log_table(const std::string& path, const IngestOptions& options,
                        IngestReport* report) {
  constexpr std::string_view kMagic = "#jsoncdn-log";
  MappedFile file(path);

  // Reserve from the file size so the load does one allocation per column
  // instead of log2(n) regrows. to_line emits ~100-200 bytes per record for
  // realistic URLs and UAs; a conservative divisor over-reserves slightly
  // rather than reallocating.
  constexpr std::size_t kEstimatedBytesPerRecord = 96;
  LogTable table;
  table.reserve(file.size() / kEstimatedBytesPerRecord);

  IngestReport local;
  std::string reason;
  LineFields f;
  // One scratch buffer per string column — views returned by unescape_into
  // must all stay alive until append_fields has interned them.
  std::string s_client, s_ua, s_url, s_domain, s_ctype;
  std::uint64_t line_number = 0;

  const std::string_view data = file.view();
  std::size_t pos = 0;
  // Same line decomposition as std::getline: '\n'-separated, a final line
  // without trailing newline still counts, a trailing '\n' adds no line.
  while (pos < data.size()) {
    const auto nl = data.find('\n', pos);
    std::string_view line = nl == std::string_view::npos
                                ? data.substr(pos)
                                : data.substr(pos, nl - pos);
    pos = nl == std::string_view::npos ? data.size() : nl + 1;

    ++line_number;
    ++local.lines;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line.front() == '#') {
      if (line.substr(0, kMagic.size()) == kMagic) {
        local.header_seen = true;
        // A wrong version means every following line may parse *wrong*
        // rather than fail — fatal in both modes.
        if (line != log_header()) {
          throw std::runtime_error(
              "unsupported log header at line " + std::to_string(line_number) +
              " (expected \"" + std::string(log_header()) + "\")");
        }
      }
      continue;
    }
    if (parse_line(line, f, &reason)) {
      ++local.records;
      table.append_fields(f.timestamp, unescape_into(f.client_id, s_client),
                          unescape_into(f.user_agent, s_ua), f.method,
                          unescape_into(f.url, s_url),
                          unescape_into(f.domain, s_domain),
                          unescape_into(f.content_type, s_ctype), f.status,
                          f.response_bytes, f.request_bytes, f.cache_status,
                          f.edge_id);
      continue;
    }
    if (options.mode == ParseMode::kStrict) {
      throw std::runtime_error("malformed log line " +
                               std::to_string(line_number) + ": " + reason);
    }
    ++local.malformed;
    ++local.reasons[reason];
    if (options.quarantine != nullptr) {
      options.quarantine->quarantine(line_number, line, reason);
    }
    if (local.malformed > options.max_malformed) {
      throw std::runtime_error(
          "ingest error budget exceeded: " + std::to_string(local.malformed) +
          " malformed lines (limit " + std::to_string(options.max_malformed) +
          ")");
    }
  }
  if (report != nullptr) *report = std::move(local);
  return table;
}

}  // namespace jsoncdn::logs
