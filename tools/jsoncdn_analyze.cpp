// jsoncdn-analyze — run the paper's analyses over a log file.
//
//   jsoncdn-analyze FILE [--characterize] [--periodicity] [--ngram] [--all]
//                   [--streaming] [--chunk-size N]
//                   [--permutations N] [--threads N]
//                   [--strict] [--quarantine FILE] [--max-error-share F]
//
// Consumes the TSV format written by jsoncdn-generate (or any producer of
// the same schema) and prints the corresponding figures/tables. Exactly the
// paper's situation: the analyst sees only the logs. A `.jlog` v2 chunk
// store (written by jsoncdn-generate --jlog-v2 or jsoncdn-jlog convert) is
// detected by magic and loaded directly — no re-parse, no re-validation.
//
// The file is parsed exactly once, zero-copy, into a columnar LogTable;
// the batch and streaming paths both consume views of that one table, so a
// comparison run no longer pays (or skews on) a second ingest.
//
// Ingestion is hardened: by default malformed lines are skipped, counted
// per reason, and (with --quarantine) preserved for inspection; the run
// fails if the rejected share exceeds --max-error-share. --strict instead
// aborts on the first bad line, naming it. An empty or unreadable log, or a
// --time-from/--time-to window that selects no record, is always an error —
// analyses over zero records are never silently printed.
//
// --streaming switches to the one-pass bounded-memory pipeline
// (stream::StreamingStudy): the table is consumed in --chunk-size record
// chunks, sketches replace exact tables, and the periodicity detector runs
// a targeted second pass over triage-selected candidate flows only.
//
// A `.jlog` v2 chunk store (shard/format.h) combined with --streaming runs
// fully out of core: chunks are decoded one at a time into a reusable
// scratch table, zone maps prune chunks outside --time-from/--time-to, and
// the periodicity second pass re-scans only the chunks holding candidate
// URLs — the whole table is never materialized, so peak memory is flat in
// file size (tunable with --max-memory, checkable with --assert-max-rss).
// The report matches the in-memory streaming run over the same records
// whenever --chunk-size divides the file's chunk row count (the default 64Ki
// geometry on both sides) — scan statistics go to stderr so stdout diffs
// clean against the in-memory run.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>

#if defined(__unix__) || defined(__APPLE__)
#define JSONCDN_HAVE_GETRUSAGE 1
#include <sys/resource.h>
#endif

#include "cli_flags.h"
#include "core/characterization.h"
#include "core/ngram.h"
#include "core/period_detector.h"
#include "core/periodicity.h"
#include "core/report.h"
#include "http/mime.h"
#include "logs/csv.h"
#include "logs/table.h"
#include "logs/zerocopy.h"
#include "shard/reader.h"
#include "stats/parallel.h"
#include "stream/streaming_study.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: jsoncdn-analyze FILE [--characterize] [--periodicity]\n"
               "                       [--ngram] [--all] [--permutations N]\n"
               "                       [--detector NAME]  (acf-fft, "
               "lomb-scargle,\n"
               "                        autoperiod, cfd-autoperiod, "
               "multi-period)\n"
               "                       [--streaming] [--chunk-size N]\n"
               "                       [--threads N]  (0 = auto)\n"
               "                       [--strict] [--quarantine FILE]\n"
               "                       [--max-error-share F]  (0..1)\n"
               "                       [--time-from T] [--time-to T]\n"
               "                       (streaming only: analyze [T_from, "
               "T_to])\n"
               "                       [--max-memory SIZE]  (v2 out-of-core "
               "page budget, e.g. 1g)\n"
               "                       [--assert-max-rss SIZE] (fail if peak "
               "RSS exceeds SIZE)\n");
}

// Parses "4096", "64k", "512m", "1g" (case-insensitive suffixes, powers of
// 1024) into bytes: digits, then at most one suffix, with the product inside
// 64 bits. Exits 2 naming `flag` on anything else.
std::uint64_t parse_size(std::string_view flag, const char* text) {
  std::string_view digits(text);
  std::uint64_t unit = 1;
  if (!digits.empty()) {
    switch (digits.back() | 0x20) {
      case 'k': unit = 1ull << 10; break;
      case 'm': unit = 1ull << 20; break;
      case 'g': unit = 1ull << 30; break;
      default: break;
    }
    if (unit != 1) digits.remove_suffix(1);
  }
  std::uint64_t value = 0;
  if (!jsoncdn::cli::parse_number(digits, value) ||
      value > std::numeric_limits<std::uint64_t>::max() / unit) {
    jsoncdn::cli::bad_flag_value(flag, text);
  }
  return value * unit;
}

// Ingest-side knobs shared by the batch and streaming paths.
struct IngestFlags {
  bool strict = false;
  std::string quarantine_path;
  double max_error_share = 1.0;  // 1.0 = any amount of garbage tolerated
};

// Prints the ingest report (stderr — it is diagnostics, not analysis
// output) and enforces the error budget. Returns false when the budget is
// blown or nothing was ingested.
bool check_ingest(const jsoncdn::logs::IngestReport& report,
                  const IngestFlags& flags, const std::string& path) {
  if (report.malformed > 0) {
    std::fputs(jsoncdn::logs::render_ingest_report(report).c_str(), stderr);
  }
  if (report.records == 0) {
    std::fprintf(stderr,
                 "error: no records ingested from %s (empty or fully "
                 "malformed log)\n",
                 path.c_str());
    return false;
  }
  if (report.error_share() > flags.max_error_share) {
    std::fprintf(stderr,
                 "error: ingest error share %.4f exceeds budget %.4f\n",
                 report.error_share(), flags.max_error_share);
    return false;
  }
  return true;
}

// Analysis window shared by the streaming paths: the in-memory path drops
// out-of-window rows when building its ingest order; the v2 out-of-core
// path pushes the same bounds into the chunk scan's zone-map predicate.
// Both select exactly the same rows.
struct TimeWindow {
  double from = -std::numeric_limits<double>::infinity();
  double to = std::numeric_limits<double>::infinity();
  [[nodiscard]] bool bounded() const noexcept {
    return from != -std::numeric_limits<double>::infinity() ||
           to != std::numeric_limits<double>::infinity();
  }
  [[nodiscard]] bool contains(double t) const noexcept {
    return t >= from && t <= to;
  }
};

// A window that selects no record is an error, like an empty log.
int no_records_in(const TimeWindow& window) {
  std::fprintf(stderr, "error: no records in [%g, %g]\n", window.from,
               window.to);
  return 1;
}

// One-pass streaming path over the already-loaded table, consumed in file
// order (the order the stream would arrive) in --chunk-size chunks — the
// same chunk geometry the old parse-as-you-go path produced, so summaries
// are unchanged. The periodicity second pass selects candidate-flow rows
// from the same table instead of re-reading the file.
int run_streaming(const jsoncdn::logs::LogTable& table,
                  const std::string& path, bool periodicity,
                  std::size_t chunk_size, std::size_t permutations,
                  jsoncdn::core::DetectorStrategy detector,
                  std::size_t threads, const TimeWindow& window) {
  using namespace jsoncdn;
  using RowIndex = logs::LogTable::RowIndex;

  stream::StreamingConfig config;
  config.threads = threads;
  stream::StreamingStudy study(config);

  std::vector<RowIndex> order;
  order.reserve(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto row = static_cast<RowIndex>(i);
    if (window.contains(table.timestamp(row))) order.push_back(row);
  }
  if (order.empty()) return no_records_in(window);
  for (std::size_t begin = 0; begin < order.size(); begin += chunk_size) {
    const std::size_t len = std::min(chunk_size, order.size() - begin);
    study.ingest(table, std::span<const RowIndex>(&order[begin], len));
  }
  const auto summary = study.summary();
  std::printf("streamed %llu records (%llu JSON) from %s in chunks of %zu\n\n",
              static_cast<unsigned long long>(summary.total_records),
              static_cast<unsigned long long>(summary.json_records),
              path.c_str(), chunk_size);
  std::fputs(stream::render_streaming_summary(summary).c_str(), stdout);

  if (periodicity && !summary.periodic_candidates.empty()) {
    std::unordered_set<std::string_view> candidates;
    for (const auto& c : summary.periodic_candidates)
      candidates.insert(c.key);
    std::vector<RowIndex> subset;
    for (RowIndex i = 0; i < table.size(); ++i) {
      if (window.contains(table.timestamp(i)) &&
          http::is_json(table.content_type(i)) &&
          candidates.contains(table.url(i)))
        subset.push_back(i);
    }
    // Stable time order, as LogTable::sort_by_time() would give the subset.
    std::stable_sort(subset.begin(), subset.end(),
                     [&](RowIndex a, RowIndex b) {
                       return table.timestamp(a) < table.timestamp(b);
                     });

    core::PeriodicityConfig pconfig;
    pconfig.detector.permutations = permutations;
    pconfig.strategy = detector;
    pconfig.threads = threads;
    pconfig.total_requests_override =
        static_cast<std::size_t>(summary.json_records);
    const auto report = core::analyze_periodicity(
        logs::TableView(table, subset), pconfig);
    std::printf("\nperiodicity (targeted pass over %zu candidate flows, "
                "%zu records):\n",
                summary.periodic_candidates.size(), subset.size());
    std::fputs(core::render_periodicity_summary(report).c_str(), stdout);
    std::fputs(core::render_period_histogram(report.object_periods).c_str(),
               stdout);
  }
  return 0;
}

void print_scan_stats(const char* label, const jsoncdn::shard::ScanStats& s) {
  std::fprintf(stderr,
               "v2 %s: %u/%u chunks decoded (%u pruned), %llu rows decoded, "
               "%llu selected, %.1f MiB payload\n",
               label, s.chunks_scanned, s.chunks_total, s.chunks_pruned,
               static_cast<unsigned long long>(s.rows_scanned),
               static_cast<unsigned long long>(s.rows_selected),
               static_cast<double>(s.bytes_decoded) / (1 << 20));
}

// Out-of-core streaming over a .jlog v2 chunk store: same StreamingStudy,
// fed chunk by chunk from the shard reader's scratch table. Within every
// decoded chunk the selected rows are ingested in --chunk-size sub-spans,
// so with the default geometry (chunk_size == the file's chunk row count,
// no window) every ingest call sees exactly the rows the in-memory path's
// would — the stdout report is identical. Scan statistics go to stderr.
int run_streaming_v2(jsoncdn::shard::ShardReader& reader,
                     const std::string& path, bool periodicity,
                     std::size_t chunk_size, std::size_t permutations,
                     jsoncdn::core::DetectorStrategy detector,
                     std::size_t threads, const TimeWindow& window) {
  using namespace jsoncdn;
  using RowIndex = logs::LogTable::RowIndex;

  shard::ScanPredicate predicate;
  predicate.min_time = window.from;
  predicate.max_time = window.to;

  stream::StreamingConfig config;
  config.threads = threads;
  stream::StreamingStudy study(config);
  const auto stats = reader.scan(
      predicate, [&](const logs::LogTable& chunk,
                     std::span<const std::uint32_t> selected) {
        for (std::size_t begin = 0; begin < selected.size();
             begin += chunk_size) {
          const std::size_t len = std::min(chunk_size, selected.size() - begin);
          study.ingest(chunk, std::span<const RowIndex>(
                                  selected.data() + begin, len));
        }
      });
  print_scan_stats("scan", stats);
  if (stats.rows_selected == 0) return no_records_in(window);

  const auto summary = study.summary();
  std::printf("streamed %llu records (%llu JSON) from %s in chunks of %zu\n\n",
              static_cast<unsigned long long>(summary.total_records),
              static_cast<unsigned long long>(summary.json_records),
              path.c_str(), chunk_size);
  std::fputs(stream::render_streaming_summary(summary).c_str(), stdout);

  if (periodicity && !summary.periodic_candidates.empty()) {
    // Targeted second pass: resolve the candidate URLs (and the JSON
    // content types) to file-global symbols and re-scan — zone maps skip
    // every chunk holding no candidate, and only the matching rows are
    // materialized into a small table for the exact detector.
    const auto& dicts = reader.dictionaries();
    shard::ScanPredicate second = predicate;
    for (const auto& c : summary.periodic_candidates) {
      const auto sym = dicts.urls().find(c.key);
      if (sym != logs::StringInterner::kNoSymbol) {
        second.url_symbols.push_back(sym);
      }
    }
    std::sort(second.url_symbols.begin(), second.url_symbols.end());
    second.url_symbols.erase(
        std::unique(second.url_symbols.begin(), second.url_symbols.end()),
        second.url_symbols.end());
    for (std::size_t s = 0; s < dicts.content_types().size(); ++s) {
      if (http::is_json(dicts.content_types().view(
              static_cast<logs::LogTable::Symbol>(s)))) {
        second.ctype_symbols.push_back(static_cast<std::uint32_t>(s));
      }
    }

    logs::LogTable subset;
    const auto second_stats = reader.scan(
        second, [&](const logs::LogTable& chunk,
                    std::span<const std::uint32_t> selected) {
          for (const auto row : selected) {
            subset.append_fields(
                chunk.timestamp(row), chunk.client_id(row),
                chunk.user_agent(row), chunk.method(row), chunk.url(row),
                chunk.domain(row), chunk.content_type(row), chunk.status(row),
                chunk.response_bytes(row), chunk.request_bytes(row),
                chunk.cache_status(row), chunk.edge_id(row));
          }
        });
    print_scan_stats("periodicity pass", second_stats);
    // Same stable time order the in-memory path gives its subset: rows
    // arrive in file order, and sort_by_time() is stable.
    subset.sort_by_time();

    core::PeriodicityConfig pconfig;
    pconfig.detector.permutations = permutations;
    pconfig.strategy = detector;
    pconfig.threads = threads;
    pconfig.total_requests_override =
        static_cast<std::size_t>(summary.json_records);
    const auto report =
        core::analyze_periodicity(logs::TableView(subset), pconfig);
    std::printf("\nperiodicity (targeted pass over %zu candidate flows, "
                "%zu records):\n",
                summary.periodic_candidates.size(), subset.size());
    std::fputs(core::render_periodicity_summary(report).c_str(), stdout);
    std::fputs(core::render_period_histogram(report.object_periods).c_str(),
               stdout);
  }
  return 0;
}

// Enforces --assert-max-rss: compares the process's peak resident set
// against the budget. Returns false (after a stderr diagnostic) on breach
// or where peak RSS cannot be read.
bool check_max_rss(std::uint64_t budget_bytes) {
#if JSONCDN_HAVE_GETRUSAGE
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    std::fprintf(stderr, "error: getrusage failed; cannot assert peak RSS\n");
    return false;
  }
  // ru_maxrss is KiB on Linux (bytes on macOS — stricter, never lenient).
  const auto peak = static_cast<std::uint64_t>(usage.ru_maxrss) * 1024ull;
  std::fprintf(stderr, "peak RSS: %.1f MiB (budget %.1f MiB)\n",
               static_cast<double>(peak) / (1 << 20),
               static_cast<double>(budget_bytes) / (1 << 20));
  if (peak > budget_bytes) {
    std::fprintf(stderr, "error: peak RSS exceeds --assert-max-rss budget\n");
    return false;
  }
  return true;
#else
  (void)budget_bytes;
  std::fprintf(stderr,
               "error: --assert-max-rss unsupported on this platform\n");
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jsoncdn;

  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string path = argv[1];
  bool characterize = false;
  bool periodicity = false;
  bool ngram = false;
  bool streaming = false;
  IngestFlags flags;
  std::size_t chunk_size = 65536;
  std::size_t permutations = 100;
  core::DetectorStrategy detector = core::DetectorStrategy::kAcfFft;
  std::size_t threads = 0;  // auto
  TimeWindow window;
  std::uint64_t max_memory = 0;       // 0 = default paging behaviour
  std::uint64_t assert_max_rss = 0;   // 0 = no assertion
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--characterize") {
      characterize = true;
    } else if (arg == "--periodicity") {
      periodicity = true;
    } else if (arg == "--ngram") {
      ngram = true;
    } else if (arg == "--all") {
      characterize = periodicity = ngram = true;
    } else if (arg == "--streaming") {
      streaming = true;
    } else if (arg == "--chunk-size" && i + 1 < argc) {
      chunk_size = cli::flag_value<std::size_t>(arg, argv[++i]);
      if (chunk_size == 0) cli::bad_flag_value(arg, argv[i]);
    } else if (arg == "--permutations" && i + 1 < argc) {
      permutations = cli::flag_value<std::size_t>(arg, argv[++i]);
      // Every detector's null needs at least two shuffles.
      if (permutations < 2) cli::bad_flag_value(arg, argv[i]);
    } else if (arg == "--detector" && i + 1 < argc) {
      try {
        detector = core::detector_strategy_from_name(argv[++i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = cli::flag_value<std::size_t>(arg, argv[++i]);
    } else if (arg == "--strict") {
      flags.strict = true;
    } else if (arg == "--quarantine" && i + 1 < argc) {
      flags.quarantine_path = argv[++i];
    } else if (arg == "--max-error-share" && i + 1 < argc) {
      flags.max_error_share = cli::flag_value<double>(arg, argv[++i]);
    } else if (arg == "--time-from" && i + 1 < argc) {
      window.from = cli::flag_value<double>(arg, argv[++i]);
    } else if (arg == "--time-to" && i + 1 < argc) {
      window.to = cli::flag_value<double>(arg, argv[++i]);
    } else if (arg == "--max-memory" && i + 1 < argc) {
      max_memory = parse_size(arg, argv[++i]);
    } else if (arg == "--assert-max-rss" && i + 1 < argc) {
      assert_max_rss = parse_size(arg, argv[++i]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (!characterize && !periodicity && !ngram) characterize = true;
  if (window.bounded() && !streaming) {
    std::fprintf(stderr,
                 "error: --time-from/--time-to require --streaming (batch "
                 "analyses always cover the whole log)\n");
    return 2;
  }
  if (window.from > window.to) {
    std::fprintf(stderr, "error: --time-from %g is after --time-to %g\n",
                 window.from, window.to);
    return 2;
  }
  const std::size_t effective_threads = jsoncdn::stats::resolve_threads(threads);

  std::ofstream quarantine_stream;
  std::optional<logs::StreamQuarantine> quarantine;
  if (!flags.quarantine_path.empty()) {
    quarantine_stream.open(flags.quarantine_path);
    if (!quarantine_stream) {
      std::fprintf(stderr, "error: cannot open quarantine file: %s\n",
                   flags.quarantine_path.c_str());
      return 2;
    }
    quarantine.emplace(quarantine_stream);
  }
  logs::IngestOptions options;
  options.mode =
      flags.strict ? logs::ParseMode::kStrict : logs::ParseMode::kPermissive;
  options.quarantine = quarantine ? &*quarantine : nullptr;

  // Single ingest, dispatched on the leading magic. A v2 chunk store under
  // --streaming never materializes the table: the shard reader feeds the
  // study chunk by chunk, out of core. Every other mode loads one table:
  // the zero-copy TSV parse, or a v2 store materialized through its chunk
  // reader.
  logs::IngestReport report;
  logs::LogTable table;
  try {
    if (streaming &&
        shard::detect_log_format(path) == shard::LogFormat::kJlogV2) {
      shard::ShardReader reader(path, max_memory);
      if (reader.row_count() == 0) {
        std::fprintf(stderr,
                     "error: no records ingested from %s (empty or fully "
                     "malformed log)\n",
                     path.c_str());
        return 1;
      }
      const int rc =
          run_streaming_v2(reader, path, periodicity, chunk_size, permutations,
                           detector, effective_threads, window);
      if (rc != 0) return rc;
      return assert_max_rss > 0 && !check_max_rss(assert_max_rss) ? 1 : 0;
    }
    table = shard::load_table_auto(path, options, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (!check_ingest(report, flags, path)) return 1;

  if (streaming) {
    const int rc = run_streaming(table, path, periodicity, chunk_size,
                                 permutations, detector, effective_threads,
                                 window);
    if (rc != 0) return rc;
    if (assert_max_rss > 0 && !check_max_rss(assert_max_rss)) return 1;
    return 0;
  }

  table.sort_by_time();
  const auto json_indices = table.json_rows();
  const logs::TableView full(table);
  const logs::TableView json(table, json_indices);
  std::printf("loaded %zu records (%zu JSON) from %s\n", table.size(),
              json.size(), path.c_str());
  std::printf("domains: %zu, objects: %zu, clients: %zu\n\n",
              table.distinct_domains(), table.distinct_objects(),
              table.distinct_clients());

  if (characterize) {
    std::fputs(core::render_source(
                   core::characterize_source(json, effective_threads))
                   .c_str(),
               stdout);
    std::printf("\n");
    std::fputs(core::render_headline(
                   core::characterize_methods(json, effective_threads),
                   core::characterize_cacheability(json, effective_threads),
                   core::compare_sizes(full, effective_threads))
                   .c_str(),
               stdout);
    std::printf("\n");
    // Without an external categorization service, group the heatmap by
    // registrable domain prefix (the synthetic logs encode the industry in
    // the hostname; real logs would plug a categorization database in here).
    const core::IndustryLookup lookup = [](std::string_view domain) {
      const auto dot = domain.find('.');
      const auto dash = domain.find('-');
      if (dot != std::string_view::npos && dash != std::string_view::npos &&
          dash > dot) {
        return std::string(domain.substr(dot + 1, dash - dot - 1));
      }
      return std::string("other");
    };
    const auto domains =
        core::domain_cacheability(json, lookup, effective_threads);
    std::fputs(core::render_heatmap(core::cacheability_heatmap(domains))
                   .c_str(),
               stdout);
    std::printf("\n");
    // Empty string (and so no output) on an error-free log.
    const auto status_block = core::render_status(
        core::characterize_status(full, effective_threads));
    if (!status_block.empty()) {
      std::fputs(status_block.c_str(), stdout);
      std::printf("\n");
    }
  }

  if (periodicity) {
    core::PeriodicityConfig config;
    config.detector.permutations = permutations;
    config.strategy = detector;
    config.threads = effective_threads;
    const auto report = core::analyze_periodicity(json, config);
    std::fputs(core::render_periodicity_summary(report).c_str(), stdout);
    std::fputs(core::render_period_histogram(report.object_periods).c_str(),
               stdout);
    std::fputs(
        core::render_periodic_client_cdf(report.periodic_client_shares)
            .c_str(),
        stdout);
    std::printf("\n");
  }

  if (ngram) {
    std::vector<core::NgramAccuracy> rows;
    for (const bool clustered : {true, false}) {
      core::NgramEvalConfig config;
      config.clustered = clustered;
      config.threads = effective_threads;
      rows.push_back(core::evaluate_ngram(json, config));
    }
    std::fputs(core::render_ngram_table(rows).c_str(), stdout);
  }
  if (assert_max_rss > 0 && !check_max_rss(assert_max_rss)) return 1;
  return 0;
}
