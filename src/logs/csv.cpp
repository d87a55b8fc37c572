#include "logs/csv.h"

#include <array>
#include <charconv>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "http/method.h"

namespace jsoncdn::logs {

namespace {

constexpr std::string_view kHeader =
    "#jsoncdn-log-v1\ttime\tclient\tua\tmethod\turl\tdomain\tmime\tstatus\t"
    "resp_bytes\treq_bytes\tcache\tedge";
constexpr std::size_t kColumns = 12;

// Escapes field separators; reuses percent-encoding for the three bytes that
// would break the line format.
std::string escape(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (char c : field) {
    switch (c) {
      case '\t': out += "%09"; break;
      case '\n': out += "%0A"; break;
      case '\r': out += "%0D"; break;
      case '%': out += "%25"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

template <typename T>
bool parse_number(std::string_view s, T& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_double(std::string_view s, double& out) {
#if defined(__cpp_lib_to_chars)
  // Fast path: from_chars parses straight off the view, no temporary.
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec == std::errc{} && ptr == s.data() + s.size()) return true;
#endif
  // Slow path for the inputs strtod accepts but from_chars does not (leading
  // whitespace or '+', hex floats) — acceptance must stay exactly strtod's so
  // malformed-line classification is unchanged.
  const std::string tmp(s);
  char* end = nullptr;
  out = std::strtod(tmp.c_str(), &end);
  return end == tmp.c_str() + tmp.size() && !tmp.empty();
}

}  // namespace

std::string_view log_header() noexcept { return kHeader; }

std::string unescape_field(std::string_view field) {
  const auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string out;
  out.reserve(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (field[i] == '%' && i + 2 < field.size()) {
      const int hi = hex(field[i + 1]);
      const int lo = hex(field[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(field[i]);
  }
  return out;
}

std::string to_line(const LogRecord& r) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed << r.timestamp << '\t' << escape(r.client_id) << '\t'
      << escape(r.user_agent) << '\t' << http::to_string(r.method) << '\t'
      << escape(r.url) << '\t' << escape(r.domain) << '\t'
      << escape(r.content_type) << '\t' << r.status << '\t'
      << r.response_bytes << '\t' << r.request_bytes << '\t'
      << to_string(r.cache_status) << '\t' << r.edge_id;
  return out.str();
}

bool parse_line(std::string_view line, LineFields& out, std::string* reason) {
  const auto fail = [reason](const char* why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  // Tolerate CRLF line endings (files written on Windows or fetched over
  // HTTP): getline leaves the '\r' on, and it would corrupt the last column.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  // Fixed-size split: a well-formed line has exactly kColumns fields, so a
  // stack array replaces the per-line vector the old parser allocated.
  std::array<std::string_view, kColumns> cols;
  std::size_t ncols = 0;
  while (true) {
    const auto tab = line.find('\t');
    const auto col = tab == std::string_view::npos ? line : line.substr(0, tab);
    if (ncols == kColumns) return fail("column-count");  // too many fields
    cols[ncols++] = col;
    if (tab == std::string_view::npos) break;
    line = line.substr(tab + 1);
  }
  if (ncols != kColumns) return fail("column-count");

  if (!parse_double(cols[0], out.timestamp)) return fail("bad-timestamp");
  out.client_id = cols[1];
  out.user_agent = cols[2];
  const auto method = http::parse_method(cols[3]);
  if (!method) return fail("bad-method");
  out.method = *method;
  out.url = cols[4];
  out.domain = cols[5];
  out.content_type = cols[6];
  if (!parse_number(cols[7], out.status)) return fail("bad-status");
  if (!parse_number(cols[8], out.response_bytes))
    return fail("bad-response-bytes");
  if (!parse_number(cols[9], out.request_bytes))
    return fail("bad-request-bytes");
  if (!parse_cache_status(cols[10], out.cache_status))
    return fail("bad-cache-status");
  if (!parse_number(cols[11], out.edge_id)) return fail("bad-edge-id");
  return true;
}

std::optional<LogRecord> from_line(std::string_view line,
                                   std::string* reason) {
  LineFields f;
  if (!parse_line(line, f, reason)) return std::nullopt;
  LogRecord r;
  r.timestamp = f.timestamp;
  r.client_id = unescape_field(f.client_id);
  r.user_agent = unescape_field(f.user_agent);
  r.method = f.method;
  r.url = unescape_field(f.url);
  r.domain = unescape_field(f.domain);
  r.content_type = unescape_field(f.content_type);
  r.status = f.status;
  r.response_bytes = f.response_bytes;
  r.request_bytes = f.request_bytes;
  r.cache_status = f.cache_status;
  r.edge_id = f.edge_id;
  return r;
}

std::optional<LogRecord> from_line(std::string_view line) {
  return from_line(line, nullptr);
}

StreamQuarantine::StreamQuarantine(std::ostream& out) : out_(out) {}

void StreamQuarantine::quarantine(std::uint64_t line_number,
                                  std::string_view line,
                                  std::string_view reason) {
  out_ << line_number << '\t' << reason << '\t' << line << '\n';
  ++count_;
}

void IngestReport::merge(const IngestReport& other) {
  lines += other.lines;
  records += other.records;
  malformed += other.malformed;
  header_seen = header_seen || other.header_seen;
  for (const auto& [reason, count] : other.reasons) reasons[reason] += count;
}

std::string render_ingest_report(const IngestReport& report) {
  std::ostringstream out;
  out << "Ingest (" << report.lines << " lines)\n";
  out << "  records: " << report.records << "   malformed: "
      << report.malformed << " (" << std::fixed << std::setprecision(2)
      << 100.0 * report.error_share() << "% of data lines)\n";
  for (const auto& [reason, count] : report.reasons) {
    out << "    " << reason << ": " << count << "\n";
  }
  if (!report.header_seen) {
    out << "  note: no #jsoncdn-log header line present\n";
  }
  return out.str();
}

LogWriter::LogWriter(std::ostream& out) : out_(out) {
  out_ << kHeader << '\n';
}

void LogWriter::write(const LogRecord& record) {
  out_ << to_line(record) << '\n';
  ++written_;
}

}  // namespace jsoncdn::logs
