// jsoncdn-perfbench — the benchmark program. It links the analysis
// libraries and replays the jsoncdn-analyze call sequences, timing every
// call into a layer's public functions from the outside.
//
//   jsoncdn-perfbench setup --workload W --seed N --out STORE [--trace FILE]
//   jsoncdn-perfbench job   --workload W --input STORE [--threads N]
//                           [--report FILE] [--trace FILE]
//   jsoncdn-perfbench exact --input STORE --out FILE
//
// setup builds a workload's input store, job runs the workload's job over
// it, and exact writes the batch pass the streaming job is checked against.
// Each command prints one JSON object on stdout. --trace records one span
// per public call (name, start, end, parent, run id) in memory and writes
// them as Chrome trace-event JSON at exit; without it no clock is read
// inside the job. perfbench/run.py drives these commands.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cdn/network.h"
#include "core/characterization.h"
#include "core/ngram.h"
#include "core/period_detector.h"
#include "core/periodicity.h"
#include "core/report.h"
#include "http/mime.h"
#include "logs/table.h"
#include "shard/reader.h"
#include "shard/synth.h"
#include "shard/writer.h"
#include "stats/simd.h"
#include "stream/hyperloglog.h"
#include "stream/streaming_study.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace {

using namespace jsoncdn;

// ---- Workloads ------------------------------------------------------------

// paper-batch: the paper scenario, analyzed in batch (--all).
// synth-stream: the 2M-row synth store, streamed out of core (--streaming).
enum class Workload { kPaperBatch, kSynthStream };

constexpr double kPaperScale = 0.01;             // short-term scenario
// The paper workload's domain/object catalog and app graphs always come
// from seed 42; --seed draws the client population and its traffic over
// them. At seed 42 this is exactly `jsoncdn-generate --scale 0.01`.
constexpr std::uint64_t kPaperCatalogSeed = 42;
constexpr std::uint64_t kSynthRows = 2'000'000;  // jsoncdn-jlog synth store
constexpr std::size_t kPermutations = 100;       // jsoncdn-analyze default
constexpr std::size_t kChunkRows = 65536;        // writer and stream default
constexpr std::size_t kJobThreads = 1;   // both jobs run single-threaded
constexpr std::size_t kMaxThreads = 2;   // set-up and the exact pass

Workload workload_by_name(std::string_view name) {
  if (name == "paper-batch") return Workload::kPaperBatch;
  if (name == "synth-stream") return Workload::kSynthStream;
  throw std::runtime_error("unknown workload: " + std::string(name));
}

// ---- Clocks and spans -----------------------------------------------------

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time, so worker threads of a parallel call count too.
std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Spans live in memory until write_chrome(). Spans are opened and closed on
// the main thread only, so the open-span stack gives each its parent.
class Tracer {
 public:
  struct Record {
    const char* name;
    int parent;  // index into records_, -1 at the root
    std::int64_t start_ns, end_ns, cpu_start_ns, cpu_end_ns;
  };

  class Span {
   public:
    Span(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Runs fn() inside a span named `name` and returns its result.
  template <typename Fn>
  decltype(auto) call(const char* name, Fn&& fn) {
    const Span span(enabled_ ? this : nullptr, name);
    return fn();
  }

  void write_chrome(const std::string& path, const std::string& run_id) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace: " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const std::int64_t origin = records_.empty() ? 0 : records_[0].start_ns;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      char buf[512];
      std::snprintf(
          buf, sizeof buf,
          "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
          "\"parent\":%d,\"run_id\":\"%s\",\"cpu_us\":%.3f}}",
          i == 0 ? "" : ",", r.name,
          static_cast<int>(std::string_view(r.name).find('.')), r.name,
          static_cast<double>(r.start_ns - origin) / 1e3,
          static_cast<double>(r.end_ns - r.start_ns) / 1e3, i, r.parent,
          run_id.c_str(),
          static_cast<double>(r.cpu_end_ns - r.cpu_start_ns) / 1e3);
      out << buf;
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace: " + path);
  }

 private:
  std::size_t open(const char* name) {
    const int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    records_.push_back({name, parent, wall_ns(), 0, cpu_ns(), 0});
    stack_.push_back(records_.size() - 1);
    return records_.size() - 1;
  }
  void close(std::size_t index) {
    records_[index].end_ns = wall_ns();
    records_[index].cpu_end_ns = cpu_ns();
    stack_.pop_back();
  }

  bool enabled_;
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
};

// ---- JSON output ------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Flat name -> value map rendered as a JSON object, keys in sorted order.
using Counters = std::map<std::string, double>;

std::string json_object(const Counters& counters) {
  std::string out = "{";
  for (const auto& [key, value] : counters) {
    if (out.size() > 1) out += ',';
    out += json_string(key) + ':' + json_number(value);
  }
  return out + "}";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ---- setup: build the input store ------------------------------------------

// Appends the simulator's logs to the store: a row container offering
// records() (logs::Dataset) goes record by record, a LogTable in one call,
// so set-up keeps compiling when the simulator moves to LogTable (ROADMAP
// item 3).
template <typename Logs>
void append_logs(shard::ShardWriter& writer, const Logs& logs) {
  if constexpr (requires { logs.records(); }) {
    for (const auto& record : logs.records()) writer.append(record);
  } else {
    writer.append(logs);
  }
}

// WorkloadGenerator -> CdnNetwork::run -> ShardWriter, as jsoncdn-generate
// --jlog-v2 does (faults stay disabled).
shard::ShardWriteStats setup_paper(std::uint64_t seed, const std::string& out,
                                   Tracer& tracer, Counters& counters) {
  std::optional<workload::WorkloadGenerator> generator;
  const auto events = tracer.call("workload.generate", [&] {
    auto config = workload::scenario_by_name("short-term", kPaperScale, seed);
    config.catalog_seed = kPaperCatalogSeed;
    generator.emplace(config);
    return generator->generate().events;
  });
  counters["workload.events"] = static_cast<double>(events.size());

  std::optional<cdn::CdnNetwork> network;
  const auto logs = tracer.call("cdn.run", [&] {
    network.emplace(generator->catalog().objects(), cdn::NetworkParams{});
    return network->run(events);
  });
  counters["cdn.hit_ratio"] = network->total_metrics().overall_hit_ratio();
  counters["cdn.origin_fetches"] =
      static_cast<double>(network->origin().fetch_count());

  return tracer.call("shard.write", [&] {
    shard::ShardWriter writer(out);
    append_logs(writer, logs);
    return writer.finalize();
  });
}

// The jsoncdn-jlog synth stream, generated a chunk's worth of records at a
// time so generation and writing are timed apart. Writes the same file as
// `jsoncdn-jlog synth --records 2000000 --seed N`.
shard::ShardWriteStats setup_synth(std::uint64_t seed, const std::string& out,
                                   Tracer& tracer) {
  shard::SynthOptions options;
  options.records = kSynthRows;
  options.seed = seed;
  shard::SynthStream stream(options);
  std::optional<shard::ShardWriter> writer;
  tracer.call("shard.write", [&] { writer.emplace(out); });
  std::vector<shard::SynthFields> block(kChunkRows);
  for (;;) {
    const std::size_t n = tracer.call("shard.synth", [&] {
      std::size_t filled = 0;
      while (filled < block.size() && stream.next(block[filled])) ++filled;
      return filled;
    });
    if (n == 0) break;
    tracer.call("shard.write", [&] {
      for (std::size_t i = 0; i < n; ++i) {
        const auto& f = block[i];
        writer->append_fields(f.timestamp, f.client_id, f.user_agent, f.method,
                              f.url, f.domain, f.content_type, f.status,
                              f.response_bytes, f.request_bytes,
                              f.cache_status, f.edge_id);
      }
    });
  }
  return tracer.call("shard.write", [&] { return writer->finalize(); });
}

int cmd_setup(Workload workload, std::uint64_t seed,
              const std::string& out, const std::string& trace_path) {
  Tracer tracer(!trace_path.empty());
  Counters counters;
  const std::int64_t t0 = wall_ns();
  const auto stats = tracer.call("setup", [&] {
    return workload == Workload::kPaperBatch
               ? setup_paper(seed, out, tracer, counters)
               : setup_synth(seed, out, tracer);
  });
  const double setup_s = static_cast<double>(wall_ns() - t0) / 1e9;
  if (stats.rows == 0) throw std::runtime_error("setup wrote no rows");
  counters["shard.bytes_per_row"] = static_cast<double>(stats.file_bytes) /
                                    static_cast<double>(stats.rows);
  if (!trace_path.empty()) {
    tracer.write_chrome(trace_path, "setup-" + std::to_string(getpid()));
  }
  std::printf("{\"setup_s\":%s,\"rows\":%llu,\"counters\":%s}\n",
              json_number(setup_s).c_str(),
              static_cast<unsigned long long>(stats.rows),
              json_object(counters).c_str());
  return 0;
}

// ---- job: the analysis over the store ---------------------------------------

// jsoncdn-analyze's stand-in for a categorization service.
std::string industry_of(std::string_view domain) {
  const auto dot = domain.find('.');
  const auto dash = domain.find('-');
  if (dot != std::string_view::npos && dash != std::string_view::npos &&
      dash > dot) {
    return std::string(domain.substr(dot + 1, dash - dot - 1));
  }
  return "other";
}

struct JobResult {
  std::uint64_t rows = 0;
  std::string report;  // rendered text, or the stream estimates as JSON
  Counters counters;
};

// jsoncdn-analyze --all: ShardReader::read_all (load_table_auto's v2 path)
// -> sort_by_time -> json_rows -> the --characterize, --periodicity and
// --ngram sections, in its order.
JobResult job_batch(const std::string& path, std::size_t threads,
                    Tracer& tracer) {
  JobResult result;
  auto& counters = result.counters;
  std::optional<shard::ShardReader> reader;
  tracer.call("shard.open", [&] { reader.emplace(path); });
  logs::IngestReport ingest;
  auto table =
      tracer.call("shard.read_all", [&] { return reader->read_all(&ingest); });
  double payload = 0.0;
  for (const auto& meta : reader->chunks())
    payload += static_cast<double>(meta.payload_bytes);
  counters["shard.chunks_decoded"] = reader->chunk_count();
  counters["shard.chunks_pruned"] = 0;
  counters["shard.bytes_decoded"] = payload;
  if (table.empty()) throw std::runtime_error("no records in " + path);
  result.rows = table.size();

  tracer.call("logs.sort_by_time", [&] { table.sort_by_time(); });
  const auto json_indices =
      tracer.call("logs.json_rows", [&] { return table.json_rows(); });
  const logs::TableView full(table);
  const logs::TableView json(table, json_indices);
  std::string& out = result.report;
  char line[256];
  std::snprintf(line, sizeof line,
                "loaded %zu records (%zu JSON)\n"
                "domains: %zu, objects: %zu, clients: %zu\n\n",
                table.size(), json.size(), table.distinct_domains(),
                table.distinct_objects(), table.distinct_clients());
  out += line;

  {
    std::optional<core::SourceBreakdown> source;
    std::optional<core::MethodMix> methods;
    std::optional<core::CacheabilityStats> cache;
    std::optional<core::SizeComparison> sizes;
    std::optional<core::CacheabilityHeatmap> heatmap;
    std::optional<core::StatusBreakdown> status;
    tracer.call("core.characterization", [&] {
      source = tracer.call("core.characterization.source", [&] {
        return core::characterize_source(json, threads);
      });
      methods = tracer.call("core.characterization.methods", [&] {
        return core::characterize_methods(json, threads);
      });
      cache = tracer.call("core.characterization.cacheability", [&] {
        return core::characterize_cacheability(json, threads);
      });
      sizes = tracer.call("core.characterization.sizes", [&] {
        return core::compare_sizes(full, threads);
      });
      const auto domains = tracer.call("core.characterization.domains", [&] {
        return core::domain_cacheability(json, industry_of, threads);
      });
      heatmap = tracer.call("core.characterization.heatmap", [&] {
        return core::cacheability_heatmap(domains);
      });
      status = tracer.call("core.characterization.status", [&] {
        return core::characterize_status(full, threads);
      });
    });
    tracer.call("core.render", [&] {
      out += core::render_source(*source) + "\n";
      out += core::render_headline(*methods, *cache, *sizes) + "\n";
      out += core::render_heatmap(*heatmap) + "\n";
      const auto status_block = core::render_status(*status);
      if (!status_block.empty()) out += status_block + "\n";
    });
  }

  core::PeriodicityConfig pconfig;
  pconfig.detector.permutations = kPermutations;
  pconfig.strategy = core::DetectorStrategy::kAcfFft;
  pconfig.threads = threads;
  const auto periodicity = tracer.call("core.periodicity", [&] {
    return core::analyze_periodicity(json, pconfig);
  });
  counters["core.periodicity.flows"] =
      static_cast<double>(periodicity.objects.size());
  counters["core.periodicity.periodic_objects"] = static_cast<double>(
      std::count_if(periodicity.objects.begin(), periodicity.objects.end(),
                    [](const auto& o) { return o.object_periodic; }));
  tracer.call("core.render", [&] {
    out += core::render_periodicity_summary(periodicity);
    out += core::render_period_histogram(periodicity.object_periods);
    out += core::render_periodic_client_cdf(periodicity.periodic_client_shares);
    out += "\n";
  });

  std::vector<core::NgramAccuracy> rows;
  double predictions = 0.0;
  for (const bool clustered : {true, false}) {
    core::NgramEvalConfig config;
    config.clustered = clustered;
    config.threads = threads;
    rows.push_back(tracer.call(
        "core.ngram", [&] { return core::evaluate_ngram(json, config); }));
    predictions += static_cast<double>(rows.back().predictions);
  }
  counters["core.ngram.predictions"] = predictions;
  tracer.call("core.render", [&] { out += core::render_ngram_table(rows); });
  return result;
}

std::string json_summary(const stats::Summary& s) {
  return "{\"p25\":" + json_number(s.p25) + ",\"p50\":" + json_number(s.p50) +
         ",\"p75\":" + json_number(s.p75) + ",\"p90\":" + json_number(s.p90) +
         ",\"p99\":" + json_number(s.p99) + "}";
}

// The exact counters shared by the stream estimates and the batch pass.
Counters exact_counters(std::uint64_t total_records, std::uint64_t json_records,
                        const core::MethodMix& methods,
                        const core::CacheabilityStats& cache,
                        const core::StatusBreakdown& status,
                        const core::SourceBreakdown& source) {
  Counters c;
  c["total_records"] = static_cast<double>(total_records);
  c["json_records"] = static_cast<double>(json_records);
  c["methods.get"] = static_cast<double>(methods.get);
  c["methods.post"] = static_cast<double>(methods.post);
  c["methods.other"] = static_cast<double>(methods.other);
  c["methods.total"] = static_cast<double>(methods.total);
  c["cacheability.cacheable"] = static_cast<double>(cache.cacheable);
  c["cacheability.uncacheable"] = static_cast<double>(cache.uncacheable);
  c["cacheability.hits"] = static_cast<double>(cache.hits);
  c["status.total"] = static_cast<double>(status.total);
  c["status.ok_2xx"] = static_cast<double>(status.ok_2xx);
  c["status.redirect_3xx"] = static_cast<double>(status.redirect_3xx);
  c["status.client_error_4xx"] = static_cast<double>(status.client_error_4xx);
  c["status.server_error_5xx"] = static_cast<double>(status.server_error_5xx);
  c["status.gateway_timeout_504"] =
      static_cast<double>(status.gateway_timeout_504);
  c["status.stale_served"] = static_cast<double>(status.stale_served);
  c["status.error_cache_status"] =
      static_cast<double>(status.error_cache_status);
  c["status.shed"] = static_cast<double>(status.shed);
  c["status.throttled"] = static_cast<double>(status.throttled);
  for (std::size_t d = 0; d < source.requests_by_device.size(); ++d) {
    c["source.requests_by_device." + std::to_string(d)] =
        static_cast<double>(source.requests_by_device[d]);
  }
  c["source.total_requests"] = static_cast<double>(source.total_requests);
  c["source.browser_requests"] = static_cast<double>(source.browser_requests);
  c["source.mobile_browser_requests"] =
      static_cast<double>(source.mobile_browser_requests);
  c["source.missing_ua_requests"] =
      static_cast<double>(source.missing_ua_requests);
  return c;
}

// jsoncdn-analyze --streaming over a v2 store without the targeted
// periodicity pass: ShardReader::scan feeds StreamingStudy::ingest one chunk
// at a time, then summary() and render.
JobResult job_stream(const std::string& path, std::size_t threads,
                     Tracer& tracer) {
  JobResult result;
  auto& counters = result.counters;
  std::optional<shard::ShardReader> reader;
  tracer.call("shard.open", [&] { reader.emplace(path); });
  if (reader->row_count() == 0) {
    throw std::runtime_error("no records in " + path);
  }

  stream::StreamingConfig config;
  config.threads = threads;
  stream::StreamingStudy study(config);
  const auto scan = tracer.call("shard.scan", [&] {
    return reader->scan(
        shard::ScanPredicate{}, [&](const logs::LogTable& chunk,
                                    std::span<const std::uint32_t> selected) {
          for (std::size_t begin = 0; begin < selected.size();
               begin += kChunkRows) {
            const std::size_t len =
                std::min(kChunkRows, selected.size() - begin);
            tracer.call("stream.ingest", [&] {
              study.ingest(chunk, std::span<const logs::LogTable::RowIndex>(
                                      selected.data() + begin, len));
            });
          }
        });
  });
  const auto summary =
      tracer.call("stream.summary", [&] { return study.summary(); });
  const auto text = tracer.call("stream.render", [&] {
    return stream::render_streaming_summary(summary);
  });
  counters["shard.chunks_decoded"] = scan.chunks_scanned;
  counters["shard.chunks_pruned"] = scan.chunks_pruned;
  counters["shard.bytes_decoded"] = static_cast<double>(scan.bytes_decoded);
  counters["stream.state_bytes"] = static_cast<double>(summary.memory_bytes);
  counters["stream.candidates"] =
      static_cast<double>(summary.periodic_candidates.size());
  result.rows = summary.total_records;

  // The estimates the checks compare against the batch pass, with the
  // configuration their error bounds derive from.
  std::string top = "[";
  for (const auto& hh : summary.top_urls) {
    if (top.size() > 1) top += ',';
    top += "[" + json_string(hh.key) + "," + std::to_string(hh.count) + "," +
           std::to_string(hh.error) + "]";
  }
  top += "]";
  result.report =
      "{\"exact\":" +
      json_object(exact_counters(summary.total_records, summary.json_records,
                                 summary.methods, summary.cacheability,
                                 summary.status, summary.source)) +
      ",\"distinct_urls\":" + json_number(summary.distinct_urls) +
      ",\"distinct_clients\":" + json_number(summary.distinct_clients) +
      ",\"distinct_domains\":" + json_number(summary.distinct_domains) +
      ",\"top_urls\":" + top +
      ",\"json_sizes\":" + json_summary(summary.json_sizes) +
      ",\"html_sizes\":" + json_summary(summary.html_sizes) +
      ",\"config\":{\"hll_precision\":" + std::to_string(config.hll_precision) +
      ",\"heavy_hitters\":" + std::to_string(config.heavy_hitters) +
      ",\"quantile_alpha\":" + json_number(config.quantile_alpha) + "}" +
      ",\"rendered\":" + json_string(text) + "}\n";
  return result;
}

int cmd_job(Workload workload, const std::string& input,
            std::size_t threads, const std::string& report_path,
            const std::string& trace_path) {
  Tracer tracer(!trace_path.empty());
  const std::int64_t t0 = wall_ns();
  const std::int64_t c0 = cpu_ns();
  auto result = tracer.call("job", [&] {
    return workload == Workload::kSynthStream
               ? job_stream(input, threads, tracer)
               : job_batch(input, threads, tracer);
  });
  const double wall_s = static_cast<double>(wall_ns() - t0) / 1e9;
  const double cpu_s = static_cast<double>(cpu_ns() - c0) / 1e9;
  if (!report_path.empty()) write_file(report_path, result.report);
  if (!trace_path.empty()) {
    tracer.write_chrome(trace_path, "job-" + std::to_string(getpid()));
  }
  std::printf(
      "{\"wall_s\":%s,\"cpu_s\":%s,\"rows\":%llu,\"threads\":%zu,"
      "\"simd\":\"%s\",\"counters\":%s}\n",
      json_number(wall_s).c_str(), json_number(cpu_s).c_str(),
      static_cast<unsigned long long>(result.rows), threads, stats::simd_isa(),
      json_object(result.counters).c_str());
  return 0;
}

// ---- exact: the batch pass the stream estimates are checked against -------

// Nearest rank of q * (n - 1), the quantile sketch's rank convention.
double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(sorted.size() - 1)));
  return sorted[std::min(rank, sorted.size() - 1)];
}

std::string json_quantiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  stats::Summary s;
  s.p25 = exact_quantile(values, 0.25);
  s.p50 = exact_quantile(values, 0.50);
  s.p75 = exact_quantile(values, 0.75);
  s.p90 = exact_quantile(values, 0.90);
  s.p99 = exact_quantile(values, 0.99);
  return json_summary(s);
}

int cmd_exact(const std::string& input, const std::string& out_path) {
  constexpr std::size_t kTopUrls = 20;
  auto table = shard::ShardReader(input).read_all();
  const auto json_indices = table.json_rows();
  const logs::TableView full(table);
  const logs::TableView json(table, json_indices);

  std::unordered_set<std::string_view> urls, clients, domains;
  std::unordered_map<std::string_view, std::uint64_t> url_counts;
  for (const auto row : json_indices) {
    urls.insert(table.url(row));
    clients.insert(table.client_key(row));
    domains.insert(table.domain(row));
    ++url_counts[table.url(row)];
  }
  std::vector<std::pair<std::string_view, std::uint64_t>> ranked(
      url_counts.begin(), url_counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  ranked.resize(std::min(ranked.size(), kTopUrls));
  std::string top = "[";
  for (const auto& [url, count] : ranked) {
    if (top.size() > 1) top += ',';
    top += "[" + json_string(url) + "," + std::to_string(count) + "]";
  }
  top += "]";

  // The stream's distinct counts are HyperLogLog estimates. Registers are a
  // max over the keys added, so a sketch of the exact key set must read the
  // same estimate however the stream split and merged its input.
  const unsigned precision = stream::StreamingConfig{}.hll_precision;
  const auto hll_of = [precision](const auto& keys) {
    stream::HyperLogLog hll(precision);
    for (const auto key : keys) hll.add(key);
    return json_number(hll.estimate());
  };

  std::vector<double> json_sizes, html_sizes;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto row = static_cast<logs::LogTable::RowIndex>(i);
    const auto content = http::classify_content(table.content_type(row));
    const auto bytes = static_cast<double>(table.response_bytes(row));
    if (content == http::ContentClass::kJson) json_sizes.push_back(bytes);
    if (content == http::ContentClass::kHtml) html_sizes.push_back(bytes);
  }

  const std::string text =
      "{\"exact\":" +
      json_object(exact_counters(
          table.size(), json_indices.size(),
          core::characterize_methods(json, kMaxThreads),
          core::characterize_cacheability(json, kMaxThreads),
          core::characterize_status(full, kMaxThreads),
          core::characterize_source(json, kMaxThreads))) +
      ",\"distinct_urls\":" + hll_of(urls) +
      ",\"distinct_clients\":" + hll_of(clients) +
      ",\"distinct_domains\":" + hll_of(domains) +
      ",\"top_urls\":" + top +
      ",\"json_sizes\":" + json_quantiles(std::move(json_sizes)) +
      ",\"html_sizes\":" + json_quantiles(std::move(html_sizes)) + "}\n";
  write_file(out_path, text);
  std::printf("{\"rows\":%zu}\n", table.size());
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: jsoncdn-perfbench setup --workload W --seed N --out "
               "STORE [--trace FILE]\n"
               "       jsoncdn-perfbench job --workload W --input STORE "
               "[--threads N] [--report FILE] [--trace FILE]\n"
               "       jsoncdn-perfbench exact --input STORE --out FILE\n"
               "workloads: paper-batch, synth-stream\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      usage();
      return 2;
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 0) {
    usage();
    return 2;
  }
  const auto flag = [&](const char* name) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };
  // Library calls that pick their thread count automatically get the
  // command's count, never the machine's core count.
  const auto limit_threads = [](std::size_t threads) {
    setenv("JSONCDN_THREADS", std::to_string(threads).c_str(), 1);
  };
  try {
    if (command == "setup" && !flag("out").empty()) {
      limit_threads(kMaxThreads);
      return cmd_setup(workload_by_name(flag("workload")),
                       std::stoull(flag("seed")), flag("out"), flag("trace"));
    }
    if (command == "job" && !flag("input").empty()) {
      const auto workload = workload_by_name(flag("workload"));
      const std::size_t threads =
          flag("threads").empty() ? kJobThreads : std::stoul(flag("threads"));
      limit_threads(threads);
      return cmd_job(workload, flag("input"), threads, flag("report"),
                     flag("trace"));
    }
    if (command == "exact" && !flag("input").empty() && !flag("out").empty()) {
      limit_threads(kMaxThreads);
      return cmd_exact(flag("input"), flag("out"));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jsoncdn-perfbench: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
