// jsoncdn-jlog — inspect, verify, convert, and synthesize `.jlog` v2 chunk
// stores.
//
//   jsoncdn-jlog inspect FILE [--chunks]
//   jsoncdn-jlog verify FILE
//   jsoncdn-jlog convert IN OUT [--chunk-rows N]
//   jsoncdn-jlog synth --records N --out FILE [--seed S] [--chunk-rows N]
//                      [--clients N] [--urls N] [--duration SECONDS]
//
// inspect prints the row/chunk counts, dictionary sizes, and time range
// from the footer metadata alone, without decoding row data; --chunks adds
// one line per chunk with its zone map. verify decodes every row through
// the full bounds/checksum/zone-map validation and exits non-zero on the
// first corruption. convert re-encodes any readable log (TSV or v2) as a v2
// chunk store. synth streams the deterministic scale workload
// (shard/synth.h) straight into a v2 store — bounded memory at any record
// count, the generator for out-of-core scale tests.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "cli_flags.h"
#include "logs/table.h"
#include "shard/reader.h"
#include "shard/synth.h"
#include "shard/writer.h"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: jsoncdn-jlog inspect FILE [--chunks]\n"
      "       jsoncdn-jlog verify FILE\n"
      "       jsoncdn-jlog convert IN OUT [--chunk-rows N]\n"
      "       jsoncdn-jlog synth --records N --out FILE [--seed S]\n"
      "                          [--chunk-rows N] [--clients N] [--urls N]\n"
      "                          [--duration SECONDS]\n");
}

int cmd_inspect(const std::string& path, bool chunks) {
  using namespace jsoncdn;
  if (shard::detect_log_format(path) != shard::LogFormat::kJlogV2) {
    std::printf("%s: text\n", path.c_str());
    std::fprintf(stderr, "not a .jlog file (no binary magic)\n");
    return 1;
  }
  std::printf("%s: jlog v2 (chunk store)\n", path.c_str());
  shard::ShardReader reader(path);
  const auto& dicts = reader.dictionaries();
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t payload = 0;
  bool first = true;
  for (const auto& meta : reader.chunks()) {
    payload += meta.payload_bytes;
    if (meta.row_count == 0) continue;
    if (first || meta.min_ts < lo) lo = meta.min_ts;
    if (first || meta.max_ts > hi) hi = meta.max_ts;
    first = false;
  }
  std::printf("rows: %llu in %u chunks (target %u rows/chunk)\n",
              static_cast<unsigned long long>(reader.row_count()),
              reader.chunk_count(), reader.chunk_target_rows());
  std::printf("time range: [%.3f, %.3f]\n", lo, hi);
  std::printf("payload: %.1f MiB compressed (%.2f bytes/row)\n",
              static_cast<double>(payload) / (1 << 20),
              reader.row_count() > 0
                  ? static_cast<double>(payload) /
                        static_cast<double>(reader.row_count())
                  : 0.0);
  std::printf("dictionaries: %zu urls, %zu client ids, %zu user agents, "
              "%zu domains, %zu content types, %zu client keys\n",
              dicts.urls().size(), dicts.client_ids().size(),
              dicts.user_agents().size(), dicts.domains().size(),
              dicts.content_types().size(), dicts.client_keys().size());
  if (chunks) {
    std::printf("%8s %10s %12s %22s %17s\n", "chunk", "rows", "bytes",
                "time range", "url symbols");
    for (std::size_t c = 0; c < reader.chunks().size(); ++c) {
      const auto& meta = reader.chunks()[c];
      std::printf("%8zu %10u %12llu [%9.3f,%9.3f] [%7u,%7u]\n", c,
                  meta.row_count,
                  static_cast<unsigned long long>(meta.payload_bytes),
                  meta.min_ts, meta.max_ts,
                  meta.symbols[shard::kSymUrl].min_sym,
                  meta.symbols[shard::kSymUrl].max_sym);
    }
  }
  return 0;
}

int cmd_verify(const std::string& path) {
  using namespace jsoncdn;
  if (shard::detect_log_format(path) != shard::LogFormat::kJlogV2) {
    std::fprintf(stderr, "%s: not a .jlog file (no binary magic)\n",
                 path.c_str());
    return 1;
  }
  shard::ShardReader reader(path);
  // Decode every chunk through the full validation path (checksums, range
  // checks, zone-map recomputation); the no-op consumer discards the rows.
  shard::ScanPredicate everything;
  everything.use_zone_maps = false;
  const auto stats = reader.scan(
      everything,
      [](const logs::LogTable&, std::span<const std::uint32_t>) {});
  std::printf("ok: v2, %llu rows in %u chunks\n",
              static_cast<unsigned long long>(stats.rows_scanned),
              stats.chunks_scanned);
  return 0;
}

int cmd_convert(const std::string& in_path, const std::string& out_path,
                std::uint32_t chunk_rows) {
  using namespace jsoncdn;
  const auto table = shard::load_table_auto(in_path);
  if (table.empty()) {
    std::fprintf(stderr, "no records in %s\n", in_path.c_str());
    return 1;
  }
  shard::ShardWriterOptions options;
  options.chunk_rows = chunk_rows;
  const auto stats = shard::write_jlog_v2(out_path, table, options);
  std::printf("wrote v2, %llu rows in %u chunks (%.1f MiB) to %s\n",
              static_cast<unsigned long long>(stats.rows), stats.chunks,
              static_cast<double>(stats.file_bytes) / (1 << 20),
              out_path.c_str());
  return 0;
}

int cmd_synth(const jsoncdn::shard::SynthOptions& options,
              const std::string& out_path, std::uint32_t chunk_rows) {
  using namespace jsoncdn;
  if (options.records == 0 || out_path.empty()) {
    usage();
    return 2;
  }
  shard::ShardWriterOptions writer_options;
  writer_options.chunk_rows = chunk_rows;
  shard::ShardWriter writer(out_path, writer_options);
  shard::synth_records(options, [&](const shard::SynthFields& f) {
    writer.append_fields(f.timestamp, f.client_id, f.user_agent, f.method,
                         f.url, f.domain, f.content_type, f.status,
                         f.response_bytes, f.request_bytes, f.cache_status,
                         f.edge_id);
  });
  const auto stats = writer.finalize();
  std::printf("wrote %llu synthetic rows in %u chunks (%.1f MiB) to %s\n",
              static_cast<unsigned long long>(stats.rows), stats.chunks,
              static_cast<double>(stats.file_bytes) / (1 << 20),
              out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jsoncdn;
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "--help" || command == "-h") {
      usage();
      return 0;
    }
    if (command == "inspect" || command == "verify") {
      if (argc < 3) {
        usage();
        return 2;
      }
      const std::string path = argv[2];
      bool chunks = false;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--chunks") == 0 && command == "inspect") {
          chunks = true;
        } else {
          usage();
          return 2;
        }
      }
      return command == "inspect" ? cmd_inspect(path, chunks)
                                  : cmd_verify(path);
    }
    if (command == "convert") {
      if (argc < 4) {
        usage();
        return 2;
      }
      const std::string in_path = argv[2];
      const std::string out_path = argv[3];
      std::uint32_t chunk_rows = 65536;
      for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--chunk-rows" && i + 1 < argc) {
          chunk_rows = cli::flag_value<std::uint32_t>(arg, argv[++i]);
        } else {
          usage();
          return 2;
        }
      }
      return cmd_convert(in_path, out_path, chunk_rows);
    }
    if (command == "synth") {
      jsoncdn::shard::SynthOptions options;
      std::string out_path;
      std::uint32_t chunk_rows = 65536;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
          if (i + 1 >= argc) {
            usage();
            std::exit(2);
          }
          return argv[++i];
        };
        if (arg == "--records") {
          options.records = cli::flag_value<std::uint64_t>(arg, next());
        } else if (arg == "--out") {
          out_path = next();
        } else if (arg == "--seed") {
          options.seed = cli::flag_value<std::uint64_t>(arg, next());
        } else if (arg == "--chunk-rows") {
          chunk_rows = cli::flag_value<std::uint32_t>(arg, next());
        } else if (arg == "--clients") {
          options.clients = cli::flag_value<std::uint32_t>(arg, next());
        } else if (arg == "--urls") {
          options.urls = cli::flag_value<std::uint32_t>(arg, next());
        } else if (arg == "--duration") {
          options.duration = cli::flag_value<double>(arg, next());
        } else {
          usage();
          return 2;
        }
      }
      return cmd_synth(options, out_path, chunk_rows);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  usage();
  return 2;
}
