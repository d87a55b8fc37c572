// Google-benchmark microbenchmarks for the hot paths: FFT/ACF (periodicity
// inner loop), ngram training/prediction, edge cache operations, UA
// classification, URL parsing/clustering, and log (de)serialization — plus
// a wall-clock speedup report (1 thread vs N) for the parallel periodicity
// and ngram stages, printed after the benchmark table.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cli_flags.h"
#include "cdn/cache.h"
#include "cdn/network.h"
#include "core/characterization.h"
#include "core/ngram.h"
#include "core/period_detector.h"
#include "core/periodicity.h"
#include "core/url_cluster.h"
#include "faults/plan.h"
#include "http/device_db.h"
#include "http/url.h"
#include "logs/csv.h"
#include "logs/table.h"
#include "logs/zerocopy.h"
#include "shard/reader.h"
#include "shard/synth.h"
#include "shard/varint.h"
#include "shard/writer.h"
#include "stats/autocorrelation.h"
#include "stats/descriptive.h"
#include "stats/kernels.h"
#include "stats/parallel.h"
#include "stats/rng.h"
#include "stats/simd.h"
#include "stream/streaming_study.h"
#include "workload/scenario.h"

namespace {

using namespace jsoncdn;
namespace kernels = stats::kernels;

std::vector<double> random_signal(std::size_t n) {
  stats::Rng rng(n);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(0.0, 2.0);
  return out;
}

void BM_SpectralAnalysis(benchmark::State& state) {
  const auto signal = random_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::spectral_analysis(signal, signal.size() / 3));
  }
}
BENCHMARK(BM_SpectralAnalysis)->RangeMultiplier(4)->Range(256, 16384);

void BM_DetectPeriodicFlow(benchmark::State& state) {
  stats::Rng rng(7);
  std::vector<double> times;
  for (int i = 0; i < 40; ++i)
    times.push_back(60.0 * i + rng.normal(0.0, 0.4));
  const auto detector = core::make_period_detector(
      core::DetectorStrategy::kAcfFft, core::DetectorParams{});
  for (auto _ : state) {
    stats::Rng prng(11);
    benchmark::DoNotOptimize(detector->detect(times, prng));
  }
}
BENCHMARK(BM_DetectPeriodicFlow);

void BM_DetectPoissonFlowEarlyExit(benchmark::State& state) {
  stats::Rng rng(8);
  std::vector<double> times;
  double t = 0.0;
  for (int i = 0; i < 40; ++i) {
    t += rng.exponential(1.0 / 60.0);
    times.push_back(t);
  }
  const auto detector = core::make_period_detector(
      core::DetectorStrategy::kAcfFft, core::DetectorParams{});
  for (auto _ : state) {
    stats::Rng prng(12);
    benchmark::DoNotOptimize(detector->detect(times, prng));
  }
}
BENCHMARK(BM_DetectPoissonFlowEarlyExit);

void BM_NgramObserve(benchmark::State& state) {
  std::vector<std::string> tokens;
  for (int i = 0; i < 64; ++i)
    tokens.push_back("https://h/api/v1/x/" + std::to_string(i % 12));
  for (auto _ : state) {
    core::NgramModel model(2);
    model.observe_sequence(tokens);
    benchmark::DoNotOptimize(model.observed_transitions());
  }
}
BENCHMARK(BM_NgramObserve);

void BM_NgramPredictTop10(benchmark::State& state) {
  core::NgramModel model(2);
  stats::Rng rng(5);
  std::vector<std::string> tokens;
  for (int i = 0; i < 5000; ++i) {
    tokens.push_back("https://h/api/v1/x/" +
                     std::to_string(rng.uniform_int(0, 50)));
  }
  model.observe_sequence(tokens);
  model.freeze();
  const std::vector<std::string> history = {tokens[100], tokens[101]};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(history, 10));
  }
}
BENCHMARK(BM_NgramPredictTop10);

void BM_CacheInsertLookup(benchmark::State& state) {
  cdn::LruCache cache(64ULL * 1024 * 1024);
  stats::Rng rng(3);
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i)
    keys.push_back("https://h/obj/" + std::to_string(i));
  std::size_t i = 0;
  double now = 0.0;
  for (auto _ : state) {
    now += 0.001;
    const auto& key = keys[i++ & 4095];
    if (!cache.lookup(key, now)) cache.insert(key, 20'000, 600.0, now);
  }
}
BENCHMARK(BM_CacheInsertLookup);

void BM_ClassifyDevice(benchmark::State& state) {
  constexpr std::string_view kUa =
      "Mozilla/5.0 (Linux; Android 9; SM-G960F) AppleWebKit/537.36 (KHTML, "
      "like Gecko) Chrome/76.0.3809.132 Mobile Safari/537.36";
  for (auto _ : state) {
    benchmark::DoNotOptimize(http::classify_device(kUa));
  }
}
BENCHMARK(BM_ClassifyDevice);

void BM_ParseUrl(benchmark::State& state) {
  constexpr std::string_view kUrl =
      "https://api.news-003.example/api/v1/article/18234?page=2&session="
      "a8f3bc2d91e04571";
  for (auto _ : state) {
    benchmark::DoNotOptimize(http::parse_url(kUrl));
  }
}
BENCHMARK(BM_ParseUrl);

void BM_ClusterUrl(benchmark::State& state) {
  constexpr std::string_view kUrl =
      "https://api.news-003.example/api/v1/article/18234?page=2&session="
      "a8f3bc2d91e04571";
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cluster_url(kUrl));
  }
}
BENCHMARK(BM_ClusterUrl);

void BM_LogLineRoundTrip(benchmark::State& state) {
  logs::LogRecord record;
  record.timestamp = 1234.567;
  record.client_id = "deadbeefdeadbeef";
  record.user_agent = "NewsReader/5.2.1 (iPhone; iOS 12.4.1; Scale/3.00)";
  record.url = "https://api.news-003.example/api/v1/article/18234";
  record.domain = "api.news-003.example";
  record.content_type = "application/json; charset=utf-8";
  record.response_bytes = 2048;
  for (auto _ : state) {
    benchmark::DoNotOptimize(logs::from_line(logs::to_line(record)));
  }
}
BENCHMARK(BM_LogLineRoundTrip);

// ---- Parallel stage speedup (wall clock, 1 thread vs N) -------------------

// Synthetic dataset dense enough to pass the paper's flow filter: a mix of
// periodic objects (the expensive full-permutation path) and Poisson objects
// (the cheap early-exit path), mirroring the real workload's skew.
logs::LogTable make_periodicity_dataset(std::size_t periodic_objects,
                                        std::size_t poisson_objects) {
  stats::Rng rng(2024);
  logs::LogTable ds;
  const std::size_t clients = 12;
  const std::size_t requests = 24;
  auto add_flow = [&](const std::string& url, std::size_t c,
                      double t) {
    logs::LogRecord record;
    record.timestamp = t;
    record.client_id = "client" + std::to_string(c);
    record.user_agent = "NewsReader/5.2";
    record.url = url;
    record.domain = "api.bench.example";
    record.content_type = "application/json";
    record.response_bytes = 2048;
    record.cache_status = logs::CacheStatus::kNotCacheable;
    ds.append(record);
  };
  for (std::size_t o = 0; o < periodic_objects; ++o) {
    const std::string url =
        "https://api.bench.example/poll/" + std::to_string(o);
    const double period = 30.0 + static_cast<double>(o % 5) * 15.0;
    for (std::size_t c = 0; c < clients; ++c) {
      const double phase = rng.uniform(0.0, period);
      for (std::size_t r = 0; r < requests; ++r) {
        add_flow(url, c,
                 phase + static_cast<double>(r) * period +
                     rng.normal(0.0, 0.3));
      }
    }
  }
  for (std::size_t o = 0; o < poisson_objects; ++o) {
    const std::string url =
        "https://api.bench.example/feed/" + std::to_string(o);
    for (std::size_t c = 0; c < clients; ++c) {
      double t = rng.uniform(0.0, 60.0);
      for (std::size_t r = 0; r < requests; ++r) {
        t += rng.exponential(1.0 / 45.0);
        add_flow(url, c, t);
      }
    }
  }
  ds.sort_by_time();
  return ds;
}

// Per-client request sequences with Zipf-ish repeat structure so the ngram
// model has something to learn.
logs::LogTable make_ngram_dataset(std::size_t n_clients,
                                  std::size_t requests_per_client) {
  stats::Rng rng(7);
  logs::LogTable ds;
  for (std::size_t c = 0; c < n_clients; ++c) {
    double t = rng.uniform(0.0, 10.0);
    std::int64_t page = rng.uniform_int(0, 49);
    for (std::size_t r = 0; r < requests_per_client; ++r) {
      // Mostly-deterministic walk with occasional jumps: predictable
      // transitions dominate, like app-driven request sequences.
      page = rng.bernoulli(0.7) ? (page + 1) % 50 : rng.uniform_int(0, 49);
      t += rng.exponential(1.0 / 5.0);
      logs::LogRecord record;
      record.timestamp = t;
      record.client_id = "client" + std::to_string(c);
      record.user_agent = "NewsReader/5.2";
      record.url = "https://api.bench.example/api/v1/page/" +
                   std::to_string(page);
      record.domain = "api.bench.example";
      record.content_type = "application/json";
      record.response_bytes = 1024;
      ds.append(record);
    }
  }
  ds.sort_by_time();
  return ds;
}

void report_parallel_speedup() {
  const std::size_t n_threads = 4;
  bench::print_header(
      "parallel speedup",
      "analysis stages, 1 thread vs " + std::to_string(n_threads) +
          " (hardware_concurrency = " +
          std::to_string(std::thread::hardware_concurrency()) + ")");

  {
    const auto ds = make_periodicity_dataset(24, 24);
    core::PeriodicityConfig config;
    auto run_with = [&](std::size_t threads) {
      config.threads = threads;
      bench::Timer timer;
      const auto report =
          core::analyze_periodicity(logs::TableView(ds), config);
      const double elapsed = timer.seconds();
      if (report.objects.empty()) bench::note("warning: no flows analyzed");
      return elapsed;
    };
    run_with(1);  // warm-up: page in the dataset, stabilize the comparison
    const double serial = run_with(1);
    const double parallel = run_with(n_threads);
    bench::print_speedup("analyze_periodicity", serial, parallel, n_threads);
  }

  {
    const auto ds = make_ngram_dataset(4000, 60);
    core::NgramEvalConfig config;
    config.context_len = 2;
    auto run_with = [&](std::size_t threads) {
      config.threads = threads;
      bench::Timer timer;
      const auto accuracy = core::evaluate_ngram(logs::TableView(ds), config);
      const double elapsed = timer.seconds();
      if (accuracy.predictions == 0) bench::note("warning: no predictions");
      return elapsed;
    };
    run_with(1);
    const double serial = run_with(1);
    const double parallel = run_with(n_threads);
    bench::print_speedup("evaluate_ngram", serial, parallel, n_threads);
  }
}

// ---- Streaming vs batch (throughput + analysis-state memory) --------------

// Appends every row of `from` to `to` with timestamps shifted by `shift`.
void append_shifted(logs::LogTable& to, const logs::LogTable& from,
                    double shift) {
  for (std::size_t i = 0; i < from.size(); ++i) {
    const auto r = static_cast<logs::LogTable::RowIndex>(i);
    to.append_fields(from.timestamp(r) + shift, from.client_id(r),
                     from.user_agent(r), from.method(r), from.url(r),
                     from.domain(r), from.content_type(r), from.status(r),
                     from.response_bytes(r), from.request_bytes(r),
                     from.cache_status(r), from.edge_id(r));
  }
}

// Exact number of distinct values of a symbol column over `rows`.
std::size_t distinct_symbols(std::span<const logs::LogTable::RowIndex> rows,
                             std::span<const logs::LogTable::Symbol> column,
                             std::size_t dictionary_size) {
  std::vector<char> seen(dictionary_size, 0);
  std::size_t distinct = 0;
  for (const auto row : rows) {
    distinct += seen[column[row]] == 0 ? 1 : 0;
    seen[column[row]] = 1;
  }
  return distinct;
}

void report_streaming_vs_batch() {
  bench::print_header(
      "streaming vs batch",
      "one-pass sketches vs exact characterization at 1x / 10x / 100x");
  const auto base = make_periodicity_dataset(8, 8);
  const double span =
      base.time_range().second - base.time_range().first + 1.0;
  bench::note("base workload: " + std::to_string(base.size()) + " records");
  std::vector<logs::LogTable::RowIndex> chunk_rows(base.size());
  std::iota(chunk_rows.begin(), chunk_rows.end(), logs::LogTable::RowIndex{0});

  for (const std::size_t scale : {std::size_t{1}, std::size_t{10},
                                  std::size_t{100}}) {
    // Streaming: chunks generated on the fly into one reused table, so
    // peak memory is the sketch state plus one chunk — the production
    // shape.
    stream::StreamingConfig config;
    config.threads = 4;
    stream::StreamingStudy study(config);
    logs::LogTable chunk;
    bench::Timer stream_timer;
    for (std::size_t rep = 0; rep < scale; ++rep) {
      chunk.clear_rows();
      append_shifted(chunk, base, span * static_cast<double>(rep));
      study.ingest(chunk, chunk_rows);
    }
    const auto summary = study.summary();
    const double stream_seconds = stream_timer.seconds();

    // Batch: materialize the scaled table, then run the exact analyses the
    // summary mirrors.
    logs::LogTable scaled;
    scaled.reserve(base.size() * scale);
    for (std::size_t rep = 0; rep < scale; ++rep)
      append_shifted(scaled, base, span * static_cast<double>(rep));
    bench::Timer batch_timer;
    const auto json_rows = scaled.json_rows();
    const logs::TableView json(scaled, json_rows);
    benchmark::DoNotOptimize(core::characterize_methods(json, 4));
    benchmark::DoNotOptimize(core::characterize_cacheability(json, 4));
    benchmark::DoNotOptimize(core::characterize_source(json, 4));
    benchmark::DoNotOptimize(core::compare_sizes(logs::TableView(scaled), 4));
    benchmark::DoNotOptimize(distinct_symbols(json_rows, scaled.url_syms(),
                                              scaled.urls().size()));
    const double batch_seconds = batch_timer.seconds();
    const std::size_t batch_bytes =
        scaled.memory_bytes() +
        json_rows.size() * sizeof(logs::LogTable::RowIndex);

    const auto records = static_cast<double>(summary.total_records);
    std::printf(
        "  %4zux (%8llu records)  streaming: %6.2f Mrec/s %6zu KiB state"
        "   batch: %6.2f Mrec/s %8zu KiB state\n",
        scale, static_cast<unsigned long long>(summary.total_records),
        records / stream_seconds / 1e6, summary.memory_bytes / 1024,
        records / batch_seconds / 1e6, batch_bytes / 1024);
  }
  bench::note(
      "streaming state is the sketch footprint (flat in the record count); "
      "batch state is the materialized table the exact analyses need");
}

// ---- Columnar ingest & group-by throughput --------------------------------

// End-to-end columnar pipeline (file -> LogTable -> symbol-keyed grouping ->
// analyses) from the TSV text through the zero-copy ingest, and from the
// .jlog v2 chunk store. Emits machine-readable ratios to BENCH_ingest.json
// so CI can gate on regressions with machine-independent numbers.

// Synthetic log shaped like the paper's traffic: a periodic polling core
// (which the flow filter keeps and the detector works on), a long random
// tail, HTML for the size comparison, and realistic string cardinalities.
void write_ingest_log(const std::string& path, std::size_t records) {
  stats::Rng rng(8086);
  std::vector<std::string> uas;
  for (int i = 0; i < 40; ++i) {
    uas.push_back(i % 3 == 0
                      ? "NewsReader/5." + std::to_string(i) + " (iPhone; iOS 12)"
                      : "Mozilla/5.0 (Linux; Android 9; Unit-" +
                            std::to_string(i) + ") Chrome/76.0");
  }
  std::ofstream out(path);
  logs::LogWriter writer(out);
  logs::LogRecord r;
  r.edge_id = 1;

  // Periodic core: 20 poll objects x 12 clients x ~40 polls. Kept small so
  // the detector's FFT+permutation work (identical compute in both
  // pipelines) doesn't drown out the storage costs this section measures.
  const std::size_t periodic = std::min<std::size_t>(records / 2, 9'600);
  std::size_t written = 0;
  for (std::size_t o = 0; written < periodic; ++o) {
    const double period = 20.0 + static_cast<double>(o % 6) * 10.0;
    r.url = "https://api.bench.example/poll/" + std::to_string(o % 100);
    r.domain = "api.bench.example";
    r.content_type = "application/json";
    r.method = http::Method::kGet;
    r.status = 200;
    for (std::size_t c = 0; c < 12 && written < periodic; ++c) {
      r.client_id = "poll-client-" + std::to_string(c + (o % 100) * 12);
      r.user_agent = uas[(c + o) % uas.size()];
      const double phase = rng.uniform(0.0, period);
      for (std::size_t k = 0; k < 40 && written < periodic; ++k) {
        r.timestamp = phase + static_cast<double>(k) * period +
                      rng.normal(0.0, 0.2);
        r.response_bytes = 700 + c;
        r.cache_status = k % 2 == 0 ? logs::CacheStatus::kNotCacheable
                                    : logs::CacheStatus::kMiss;
        writer.write(r);
        ++written;
      }
    }
  }
  // Random tail up to the target count.
  for (; written < records; ++written) {
    const auto i = written;
    const bool json = i % 10 < 6;
    r.timestamp = rng.uniform(0.0, 86'400.0);
    r.client_id = "client-" + std::to_string(i % 5'000);
    r.user_agent = uas[i % uas.size()];
    r.method = i % 13 == 0 ? http::Method::kPost : http::Method::kGet;
    r.url = (json ? "https://api.bench.example/v1/obj/"
                  : "https://www.bench.example/page/") +
            std::to_string(i % 2'000) + "?page=" + std::to_string(i % 7);
    r.domain = json ? "api.bench.example" : "www.bench.example";
    r.content_type = json ? "application/json; charset=utf-8"
                          : "text/html; charset=utf-8";
    r.status = i % 211 == 0 ? 503 : 200;
    r.response_bytes = 256 + i % 4'096;
    r.cache_status = static_cast<logs::CacheStatus>(i % 4);
    writer.write(r);
  }
}

struct PipelineTiming {
  double ingest_s = 0.0;   // file -> in-memory store
  double groupby_s = 0.0;  // object + client flow extraction
  double analyze_s = 0.0;  // characterization + periodicity
  std::size_t store_bytes = 0;
  std::size_t flows = 0;  // sanity: every pipeline must agree
  [[nodiscard]] double total_s() const {
    return ingest_s + groupby_s + analyze_s;
  }
};

core::PeriodicityConfig ingest_bench_periodicity(std::size_t threads) {
  core::PeriodicityConfig config;
  config.detector.permutations = 10;  // enough work, bounded wall clock
  config.threads = threads;
  return config;
}

PipelineTiming run_columnar_pipeline(const std::string& path,
                                     std::size_t threads, bool from_jlog) {
  PipelineTiming t;
  bench::Timer timer;
  auto table = from_jlog ? shard::load_table_auto(path)
                         : logs::read_log_table(path, logs::IngestOptions{});
  table.sort_by_time();
  t.ingest_s = timer.seconds();

  const auto json_indices = table.json_rows();
  const logs::TableView json(table, json_indices);
  const logs::TableView full(table);
  timer.reset();
  const auto object_flows = logs::extract_object_flows(json);
  const auto client_flows = logs::extract_client_flows(json);
  t.groupby_s = timer.seconds();
  t.flows = object_flows.size() + client_flows.size();

  timer.reset();
  benchmark::DoNotOptimize(core::characterize_source(json, threads));
  benchmark::DoNotOptimize(core::characterize_methods(json, threads));
  benchmark::DoNotOptimize(core::characterize_cacheability(json, threads));
  benchmark::DoNotOptimize(core::compare_sizes(full, threads));
  benchmark::DoNotOptimize(core::characterize_status(full, threads));
  benchmark::DoNotOptimize(
      core::analyze_periodicity(json, ingest_bench_periodicity(threads)));
  t.analyze_s = timer.seconds();
  t.store_bytes = table.memory_bytes() +
                  json_indices.size() * sizeof(logs::LogTable::RowIndex);
  return t;
}

// Alternating repetitions of the two 1-thread ingest pipelines.
constexpr std::size_t kIngestRepetitions = 5;

// Each timing field's median over repeated runs of one pipeline (the sizes
// and flow counts are the same in every run).
PipelineTiming median_timing(const std::vector<PipelineTiming>& runs) {
  const auto median = [&](double PipelineTiming::*field) {
    std::vector<double> values;
    for (const auto& run : runs) values.push_back(run.*field);
    return stats::percentile(values, 0.5);
  };
  PipelineTiming out = runs.front();
  out.ingest_s = median(&PipelineTiming::ingest_s);
  out.groupby_s = median(&PipelineTiming::groupby_s);
  out.analyze_s = median(&PipelineTiming::analyze_s);
  return out;
}

struct IngestBenchReport {
  std::size_t records = 0;
  PipelineTiming col1, jlog1;  // 1 thread
  PipelineTiming colN;         // n_threads
  std::size_t n_threads = 4;

  // Headline: the pipeline from the .jlog v2 store against the same
  // pipeline from the TSV text through the zero-copy ingest. Parsing text
  // happens once, at store-write time; every analysis run after that
  // starts from the compressed binary columns.
  [[nodiscard]] double speedup_total() const {
    return col1.total_s() / jlog1.total_s();
  }
  [[nodiscard]] double speedup_ingest() const {
    return col1.ingest_s / jlog1.ingest_s;
  }
};

void print_pipeline(const char* name, const PipelineTiming& t) {
  std::printf(
      "  %-24s ingest %7.3f s   group-by %7.3f s   analyze %7.3f s   "
      "total %7.3f s   store %8zu KiB\n",
      name, t.ingest_s, t.groupby_s, t.analyze_s, t.total_s(),
      t.store_bytes / 1024);
}

IngestBenchReport report_ingest_throughput(std::size_t records) {
  bench::print_header(
      "columnar ingest",
      "zero-copy TSV vs .jlog v2, " + std::to_string(records) +
          " records");
  IngestBenchReport report;
  report.records = records;
  const std::string log_path = "/tmp/jsoncdn_bench_ingest.log";
  const std::string jlog_path = "/tmp/jsoncdn_bench_ingest.jlog";
  write_ingest_log(log_path, records);
  shard::write_jlog_v2(jlog_path,
                       logs::read_log_table(log_path, logs::IngestOptions{}));

  // Warm the page cache so the comparison measures parsing, not disk.
  (void)logs::read_log_table(log_path, logs::IngestOptions{});

  // One sample of each 1-thread pipeline let a single slow run move a ratio
  // by a quarter, so they alternate kIngestRepetitions times and the report
  // (and the CI gate on it) uses each field's median.
  std::vector<PipelineTiming> col_runs;
  std::vector<PipelineTiming> jlog_runs;
  for (std::size_t rep = 0; rep < kIngestRepetitions; ++rep) {
    col_runs.push_back(
        run_columnar_pipeline(log_path, 1, /*from_jlog=*/false));
    jlog_runs.push_back(
        run_columnar_pipeline(jlog_path, 1, /*from_jlog=*/true));
    std::printf("  repetition %zu: end-to-end %.2fx   ingest %.2fx\n",
                rep + 1, col_runs.back().total_s() / jlog_runs.back().total_s(),
                col_runs.back().ingest_s / jlog_runs.back().ingest_s);
  }
  report.col1 = median_timing(col_runs);
  report.jlog1 = median_timing(jlog_runs);
  report.colN = run_columnar_pipeline(log_path, report.n_threads,
                                      /*from_jlog=*/false);
  if (report.col1.flows != report.jlog1.flows ||
      report.col1.flows != report.colN.flows) {
    bench::note("warning: pipelines disagree on flow counts");
  }

  print_pipeline("TSV (1 thread, median)", report.col1);
  print_pipeline(".jlog (1 thread, median)", report.jlog1);
  print_pipeline("TSV (4 threads)", report.colN);
  std::printf("  .jlog over TSV (medians): end-to-end %.2fx   ingest %.2fx\n",
              report.speedup_total(), report.speedup_ingest());
  std::remove(log_path.c_str());
  std::remove(jlog_path.c_str());
  return report;
}

void write_ingest_json(const IngestBenchReport& r, const std::string& path) {
  std::ofstream out(path);
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"records\": %zu,\n"
      "  \"columnar_1t\": {\"ingest_s\": %.4f, \"groupby_s\": %.4f, "
      "\"analyze_s\": %.4f, \"total_s\": %.4f, \"store_bytes\": %zu},\n"
      "  \"jlog_1t\": {\"ingest_s\": %.4f, \"total_s\": %.4f},\n"
      "  \"columnar_4t_total_s\": %.4f,\n"
      "  \"speedup_total\": %.4f,\n"
      "  \"speedup_ingest\": %.4f\n"
      "}\n",
      r.records, r.col1.ingest_s, r.col1.groupby_s, r.col1.analyze_s,
      r.col1.total_s(), r.col1.store_bytes, r.jlog1.ingest_s,
      r.jlog1.total_s(), r.colN.total_s(), r.speedup_total(),
      r.speedup_ingest());
  out << buf;
  bench::note("wrote " + path);
}

// Minimal key lookup for the fixed-format JSON this binary writes — no
// dependency, no general parser.
double json_number(const std::string& text, const std::string& key) {
  const auto pos = text.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1.0;
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return -1.0;
  return std::atof(text.c_str() + colon + 1);
}

// Compares machine-independent ratios against the committed baseline; wall
// clocks differ across machines, speedups should not. Returns false when a
// ratio regressed by more than `tolerance` (relative).
bool check_against_baseline(const IngestBenchReport& r,
                            const std::string& baseline_path,
                            double tolerance) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", baseline_path.c_str());
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  bool ok = true;
  const auto check = [&](const char* key, double current) {
    const double base = json_number(text, key);
    if (base <= 0.0) {
      std::fprintf(stderr, "baseline missing %s\n", key);
      ok = false;
      return;
    }
    const double floor = base * (1.0 - tolerance);
    const bool pass = current >= floor;
    std::printf("  %-18s baseline %6.3f   current %6.3f   floor %6.3f   %s\n",
                key, base, current, floor, pass ? "ok" : "REGRESSED");
    if (!pass) ok = false;
  };
  bench::print_header("ingest regression check",
                      baseline_path + " (tolerance " +
                          std::to_string(static_cast<int>(tolerance * 100)) +
                          "%)");
  // The workload's periodic core is an absolute size, so the ratios shift
  // with the record count; a comparison is only meaningful at the count the
  // baseline was measured at.
  const auto base_records =
      static_cast<std::size_t>(json_number(text, "records"));
  if (base_records != r.records) {
    std::fprintf(stderr,
                 "baseline was measured at %zu records, this run used %zu; "
                 "rerun with --ingest-records=%zu\n",
                 base_records, r.records, base_records);
    return false;
  }
  check("speedup_total", r.speedup_total());
  check("speedup_ingest", r.speedup_ingest());
  return ok;
}

// ---- Out-of-core scale (.jlog v2 chunk store) -----------------------------

// End-to-end scaling of the sharded store: synthesize N records straight
// into a v2 chunk store (never materializing the table), decode it back with
// a full scan, run the out-of-core streaming study over it, and measure how
// much of the file a quarter-length time window lets the zone maps skip.
// The machine-independent ratios (bytes/row, prune fraction) are what the
// committed baseline gates on; the throughputs are informational.
struct ScaleBenchReport {
  std::size_t records = 0;
  std::uint32_t chunk_rows = 0;
  std::uint64_t v2_bytes = 0;
  double write_s = 0.0;   // synth stream -> v2 store on disk
  double decode_s = 0.0;  // full scan, no consumer (pure codec cost)
  double e2e_s = 0.0;     // scan -> StreamingStudy summary
  std::uint32_t chunks_total = 0;
  std::uint32_t chunks_pruned = 0;  // quarter-window scan

  [[nodiscard]] double bytes_per_row() const {
    return records == 0 ? 0.0 : static_cast<double>(v2_bytes) /
                                    static_cast<double>(records);
  }
  [[nodiscard]] double prune_fraction() const {
    return chunks_total == 0 ? 0.0 : static_cast<double>(chunks_pruned) /
                                         static_cast<double>(chunks_total);
  }
  [[nodiscard]] double mrec_s(double seconds) const {
    return seconds <= 0.0 ? 0.0
                          : static_cast<double>(records) / seconds / 1e6;
  }
};

ScaleBenchReport report_scale(std::size_t records) {
  bench::print_header(
      "out-of-core scale",
      ".jlog v2 write/decode/stream + zone-map pruning, " +
          std::to_string(records) + " records");
  ScaleBenchReport r;
  r.records = records;
  const std::string v2_path = "/tmp/jsoncdn_bench_scale_v2.jlog";

  shard::SynthOptions synth;
  synth.records = records;
  synth.seed = 4242;

  {
    shard::ShardWriterOptions options;
    shard::ShardWriter writer(v2_path, options);
    r.chunk_rows = options.chunk_rows;
    bench::Timer timer;
    shard::synth_records(synth, [&](const shard::SynthFields& f) {
      writer.append_fields(f.timestamp, f.client_id, f.user_agent, f.method,
                           f.url, f.domain, f.content_type, f.status,
                           f.response_bytes, f.request_bytes, f.cache_status,
                           f.edge_id);
    });
    const auto stats = writer.finalize();
    r.write_s = timer.seconds();
    r.v2_bytes = stats.file_bytes;
    r.chunks_total = static_cast<std::uint32_t>(stats.chunks);
  }

  {
    shard::ShardReader reader(v2_path);
    bench::Timer timer;
    const auto stats = reader.scan(
        shard::ScanPredicate{},
        [](const logs::LogTable&, std::span<const std::uint32_t>) {});
    r.decode_s = timer.seconds();
    if (stats.rows_scanned != records)
      bench::note("warning: full scan decoded an unexpected row count");
  }

  {
    shard::ShardReader reader(v2_path);
    stream::StreamingStudy study{stream::StreamingConfig{}};
    bench::Timer timer;
    reader.scan(shard::ScanPredicate{},
                [&](const logs::LogTable& chunk,
                    std::span<const std::uint32_t> selected) {
                  study.ingest(chunk, selected);
                });
    const auto summary = study.summary();
    r.e2e_s = timer.seconds();
    if (summary.total_records != records)
      bench::note("warning: streaming study saw an unexpected row count");
  }

  {
    shard::ShardReader reader(v2_path);
    shard::ScanPredicate window;
    window.min_time = synth.start_time;
    window.max_time = synth.start_time + synth.duration / 4.0;
    const auto stats = reader.scan(
        window, [](const logs::LogTable&, std::span<const std::uint32_t>) {});
    r.chunks_total = stats.chunks_total;
    r.chunks_pruned = stats.chunks_pruned;
  }

  std::printf("  v2 %8.1f MiB   %5.1f B/row\n",
              static_cast<double>(r.v2_bytes) / (1024.0 * 1024.0),
              r.bytes_per_row());
  std::printf(
      "  write %6.2f Mrec/s   decode %6.2f Mrec/s   stream %6.2f Mrec/s\n",
      r.mrec_s(r.write_s), r.mrec_s(r.decode_s), r.mrec_s(r.e2e_s));
  std::printf(
      "  quarter window pruned %u of %u chunks (%.1f%%) without decoding\n",
      r.chunks_pruned, r.chunks_total, 100.0 * r.prune_fraction());
  std::remove(v2_path.c_str());
  return r;
}

void write_scale_json(const ScaleBenchReport& r, const std::string& path) {
  std::ofstream out(path);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"records\": %zu,\n"
      "  \"chunk_rows\": %u,\n"
      "  \"v2_bytes\": %llu,\n"
      "  \"bytes_per_row\": %.4f,\n"
      "  \"prune_fraction\": %.4f,\n"
      "  \"write_mrec_s\": %.4f,\n"
      "  \"decode_mrec_s\": %.4f,\n"
      "  \"stream_mrec_s\": %.4f\n"
      "}\n",
      r.records, r.chunk_rows, static_cast<unsigned long long>(r.v2_bytes),
      r.bytes_per_row(), r.prune_fraction(), r.mrec_s(r.write_s),
      r.mrec_s(r.decode_s), r.mrec_s(r.e2e_s));
  out << buf;
  bench::note("wrote " + path);
}

// Gates on the machine-independent ratios only: bytes/row and pruning are
// properties of the format and the workload, not of the machine. Throughputs
// are reported but never gated.
bool check_scale_baseline(const ScaleBenchReport& r,
                          const std::string& baseline_path, double tolerance) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", baseline_path.c_str());
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  bench::print_header("scale regression check",
                      baseline_path + " (tolerance " +
                          std::to_string(static_cast<int>(tolerance * 100)) +
                          "%)");
  const auto base_records =
      static_cast<std::size_t>(json_number(text, "records"));
  if (base_records != r.records) {
    std::fprintf(stderr,
                 "baseline was measured at %zu records, this run used %zu; "
                 "rerun with --scale-records=%zu\n",
                 base_records, r.records, base_records);
    return false;
  }
  bool ok = true;
  const auto check_min = [&](const char* key, double current) {
    const double base = json_number(text, key);
    if (base <= 0.0) {
      std::fprintf(stderr, "baseline missing %s\n", key);
      ok = false;
      return;
    }
    const double floor = base * (1.0 - tolerance);
    const bool pass = current >= floor;
    std::printf("  %-18s baseline %6.3f   current %6.3f   floor %6.3f   %s\n",
                key, base, current, floor, pass ? "ok" : "REGRESSED");
    if (!pass) ok = false;
  };
  const auto check_max = [&](const char* key, double current) {
    const double base = json_number(text, key);
    if (base <= 0.0) {
      std::fprintf(stderr, "baseline missing %s\n", key);
      ok = false;
      return;
    }
    const double ceiling = base * (1.0 + tolerance);
    const bool pass = current <= ceiling;
    std::printf(
        "  %-18s baseline %6.3f   current %6.3f   ceiling %6.3f   %s\n", key,
        base, current, ceiling, pass ? "ok" : "REGRESSED");
    if (!pass) ok = false;
  };
  check_min("prune_fraction", r.prune_fraction());
  check_max("bytes_per_row", r.bytes_per_row());
  return ok;
}

// ---- Vectorized kernel throughput (--kernels) -----------------------------

// Per-kernel elements/second for the dual-build analysis kernels, three ways:
// the pre-kernel reference loop (kernels::baseline, compiled at the build's
// default flags exactly like the original call sites), the scalar kernel
// build, and the SIMD kernel build. The committed baseline gates on the
// SIMD-vs-reference throughput ratio — a property of the kernel shapes far
// more stable across machines than any wall clock.

// Rate of `fn` in elements/second: repetitions are scaled until a trial runs
// long enough to trust, and the best of three trials is kept (the usual
// guard against scheduler noise on shared CI runners).
template <typename Fn>
double measure_rate(double elements_per_call, Fn&& fn) {
  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    std::size_t reps = 1;
    for (;;) {
      bench::Timer timer;
      for (std::size_t r = 0; r < reps; ++r) fn();
      const double s = timer.seconds();
      if (s >= 0.06) {
        best = std::max(best, elements_per_call *
                                  static_cast<double>(reps) / s);
        break;
      }
      reps = s <= 1e-6 ? reps * 16
                       : static_cast<std::size_t>(
                             static_cast<double>(reps) * (0.1 / s)) +
                             1;
    }
  }
  return best;
}

// Each field is the median over kKernelRepetitions repetitions; `ratio` is
// the median of the per-repetition SIMD-vs-reference ratios.
struct KernelBench {
  std::string name;
  double baseline_meps = 0.0;  // pre-kernel reference loop
  double scalar_meps = 0.0;    // kernel body, vectorization disabled
  double simd_meps = 0.0;      // kernel body, vectorized build
  double ratio = 0.0;
};

// Alternating repetitions of each kernel's three variants.
constexpr std::size_t kKernelRepetitions = 5;

struct KernelBenchReport {
  std::size_t records = 0;
  bool simd_ran = false;
  std::vector<KernelBench> kernels;
};

void print_kernel_row(const std::string& name, const std::string& label,
                      double baseline, double scalar, double simd,
                      double ratio) {
  std::printf(
      "  %-14s %-6s reference %8.1f Melem/s   scalar %8.1f   %-6s %8.1f   "
      "ratio %5.2fx\n",
      name.c_str(), label.c_str(), baseline, scalar, stats::simd_isa(), simd,
      ratio);
}

// Measures one kernel three ways. `run_kernel` calls the dispatched kernel
// (measured under both dispatch modes), `run_baseline` the reference loop.
// A single sample of a ratio can fail the gate on one slow trial, so the
// three variants alternate kKernelRepetitions times, every repetition is
// printed, and the report (and the CI gate on it) uses the medians.
template <typename KernelFn, typename BaselineFn>
KernelBench bench_kernel(const std::string& name, double elements_per_call,
                         KernelFn&& run_kernel, BaselineFn&& run_baseline) {
  std::vector<double> baseline, scalar, simd, ratio;
  for (std::size_t rep = 0; rep < kKernelRepetitions; ++rep) {
    baseline.push_back(measure_rate(elements_per_call, run_baseline) / 1e6);
    stats::set_simd_enabled(false);
    scalar.push_back(measure_rate(elements_per_call, run_kernel) / 1e6);
    stats::set_simd_enabled(true);
    simd.push_back(measure_rate(elements_per_call, run_kernel) / 1e6);
    ratio.push_back(baseline.back() <= 0.0 ? 0.0
                                           : simd.back() / baseline.back());
    print_kernel_row(name, "rep " + std::to_string(rep + 1), baseline.back(),
                     scalar.back(), simd.back(), ratio.back());
  }
  KernelBench result;
  result.name = name;
  result.baseline_meps = stats::percentile(baseline, 0.5);
  result.scalar_meps = stats::percentile(scalar, 0.5);
  result.simd_meps = stats::percentile(simd, 0.5);
  result.ratio = stats::percentile(ratio, 0.5);
  print_kernel_row(name, "median", result.baseline_meps, result.scalar_meps,
                   result.simd_meps, result.ratio);
  return result;
}

KernelBenchReport report_kernel_throughput(std::size_t records) {
  bench::print_header(
      "vectorized kernels",
      "reference loop vs scalar vs SIMD kernel build, " +
          std::to_string(records) + " elements");
  KernelBenchReport report;
  report.records = records;
  report.simd_ran = stats::simd_available();
  if (!report.simd_ran) {
    bench::note("warning: no SIMD kernel build on this machine; the SIMD "
                "column measures the scalar build");
  }
  const bool entry_mode = stats::simd_enabled();
  stats::Rng rng(0x51d);
  const std::size_t n = records;

  // The spectral pass of the periodicity permutation test at 4,096-point
  // transforms (2,048-sample binned-count signals), the size the null runs
  // hundreds of times per flow: the lane kernel (one stats::spectral_maxima
  // call transforms four signals side by side) against the pre-kernel
  // single-signal pass (baseline::spectral_pass, once per signal).
  {
    constexpr std::size_t n_signal = 2048;
    constexpr std::size_t padded = 2 * n_signal;
    constexpr std::size_t max_lag = n_signal / 3;
    constexpr std::size_t lanes = stats::kSpectralLanes;
    std::vector<std::vector<double>> signals(lanes,
                                             std::vector<double>(n_signal));
    std::array<const double*, lanes> ptrs{};
    for (std::size_t l = 0; l < lanes; ++l) {
      for (auto& v : signals[l])
        v = static_cast<double>(rng.uniform_int(0, 4));
      ptrs[l] = signals[l].data();
    }
    stats::SpectralWorkspace ws;
    std::vector<std::complex<double>> buf(padded);
    std::vector<double> acf(max_lag + 1);
    std::vector<double> pgram(padded / 2);
    // Work unit: one point of one signal's transform.
    report.kernels.push_back(bench_kernel(
        "fft",
        static_cast<double>(lanes * padded),
        [&] {
          benchmark::DoNotOptimize(
              stats::spectral_maxima(ptrs, n_signal, max_lag, ws));
        },
        [&] {
          for (const auto& signal : signals) {
            kernels::baseline::spectral_pass(signal.data(), n_signal, max_lag,
                                             padded, buf.data(), acf.data(),
                                             pgram.data());
            benchmark::DoNotOptimize(pgram.data());
          }
        }));
  }

  // Time-binning over a full-size record stream (rate histograms). Flow
  // event times arrive chronologically, which the kernel's sorted fast path
  // exploits; a shuffled copy exercises the per-element vectorized fallback.
  {
    const double t_begin = 0.0, t_end = 86'400.0;
    constexpr std::size_t nbins = 1024;
    const double dt = (t_end - t_begin) / static_cast<double>(nbins);
    std::vector<double> times(n);
    for (auto& t : times) t = rng.uniform(-100.0, 86'500.0);
    std::vector<double> shuffled = times;
    std::sort(times.begin(), times.end());
    std::vector<double> bins(nbins);
    report.kernels.push_back(bench_kernel(
        "bin_events",
        static_cast<double>(n),
        [&] {
          std::fill(bins.begin(), bins.end(), 0.0);
          kernels::bin_events(times.data(), n, t_begin, t_end, dt,
                              bins.data(), nbins);
          benchmark::DoNotOptimize(bins.data());
        },
        [&] {
          std::fill(bins.begin(), bins.end(), 0.0);
          kernels::baseline::bin_events(times.data(), n, t_begin, t_end, dt,
                                        bins.data(), nbins);
          benchmark::DoNotOptimize(bins.data());
        }));
    report.kernels.push_back(bench_kernel(
        "bin_shuffled",
        static_cast<double>(n),
        [&] {
          std::fill(bins.begin(), bins.end(), 0.0);
          kernels::bin_events(shuffled.data(), n, t_begin, t_end, dt,
                              bins.data(), nbins);
          benchmark::DoNotOptimize(bins.data());
        },
        [&] {
          std::fill(bins.begin(), bins.end(), 0.0);
          kernels::baseline::bin_events(shuffled.data(), n, t_begin, t_end,
                                        dt, bins.data(), nbins);
          benchmark::DoNotOptimize(bins.data());
        }));
  }

  // Symbol-keyed group-by counting on a CDN-skewed stream: time-sorted
  // access logs repeat the same hot object in bursts (geometric run
  // lengths, mean ~5), so a single count table serialises on
  // store-to-load forwarding; the interleaved sub-tables recover
  // independent increment chains.
  {
    constexpr std::size_t n_keys = 2048;
    std::vector<std::uint32_t> keys(n);
    std::uint32_t prev = 0;
    for (auto& k : keys) {
      if (rng.uniform_int(0, 99) < 80) {
        k = prev;  // continue the current hot-object burst
      } else {
        const auto r = static_cast<std::uint64_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(n_keys * 5) - 1));
        k = static_cast<std::uint32_t>(r % 5 != 0 ? r % 16 : r % n_keys);
        prev = k;
      }
    }
    std::vector<std::uint64_t> counts(n_keys);
    report.kernels.push_back(bench_kernel(
        "groupby",
        static_cast<double>(n),
        [&] {
          std::fill(counts.begin(), counts.end(), 0);
          kernels::count_u32(keys.data(), nullptr, n, counts.data(), n_keys);
          benchmark::DoNotOptimize(counts.data());
        },
        [&] {
          std::fill(counts.begin(), counts.end(), 0);
          kernels::baseline::count_u32(keys.data(), nullptr, n, counts.data(),
                                       n_keys);
          benchmark::DoNotOptimize(counts.data());
        }));
  }

  // Status classing (the characterization marginals).
  {
    std::vector<std::int32_t> status(n);
    for (auto& s : status) {
      const auto r = rng.uniform_int(0, 99);
      s = r < 70 ? 200 : r < 80 ? 304 : r < 90 ? 404 : r < 95 ? 503 : 504;
    }
    report.kernels.push_back(bench_kernel(
        "status",
        static_cast<double>(n),
        [&] {
          benchmark::DoNotOptimize(
              kernels::count_status(status.data(), nullptr, n));
        },
        [&] {
          benchmark::DoNotOptimize(
              kernels::baseline::count_status(status.data(), nullptr, n));
        }));
  }

  // Chunk-store varint decode: bulk get_n vs the element-at-a-time get()
  // loop the column decoder ran before. Not SIMD-dispatched (the fast path
  // is branch restructuring, identical in both builds) — the ratio is what
  // the gate watches.
  {
    std::string buf;
    {
      shard::DeltaEncoder enc;
      std::uint64_t v = 1'000'000'000;
      for (std::size_t i = 0; i < n; ++i) {
        v += static_cast<std::uint64_t>(rng.uniform_int(0, 300));
        enc.put(buf, v);
      }
    }
    std::vector<std::uint64_t> decoded(n);
    report.kernels.push_back(bench_kernel(
        "varint",
        static_cast<double>(n),
        [&] {
          shard::DeltaDecoder dec;
          std::size_t pos = 0;
          if (!dec.get_n(buf, pos, decoded.data(), n))
            bench::note("warning: varint bulk decode failed");
          benchmark::DoNotOptimize(decoded.data());
        },
        [&] {
          shard::DeltaDecoder dec;
          std::size_t pos = 0;
          for (std::size_t i = 0; i < n; ++i) {
            if (!dec.get(buf, pos, decoded[i])) {
              bench::note("warning: varint decode failed");
              break;
            }
          }
          benchmark::DoNotOptimize(decoded.data());
        }));
  }

  stats::set_simd_enabled(entry_mode);
  return report;
}

void write_kernels_json(const KernelBenchReport& r, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"records\": " << r.records << ",\n  \"simd_ran\": "
      << (r.simd_ran ? "true" : "false") << ",\n";
  char buf[512];
  for (std::size_t i = 0; i < r.kernels.size(); ++i) {
    const auto& k = r.kernels[i];
    std::snprintf(buf, sizeof(buf),
                  "  \"%s_baseline_meps\": %.2f,\n"
                  "  \"%s_scalar_meps\": %.2f,\n"
                  "  \"%s_simd_meps\": %.2f,\n"
                  "  \"%s_ratio\": %.4f%s\n",
                  k.name.c_str(), k.baseline_meps, k.name.c_str(),
                  k.scalar_meps, k.name.c_str(), k.simd_meps, k.name.c_str(),
                  k.ratio, i + 1 < r.kernels.size() ? "," : "");
    out << buf;
  }
  out << "}\n";
  bench::note("wrote " + path);
}

// Gates each kernel's median SIMD-vs-reference throughput ratio against the
// committed baseline. Machines without the SIMD build skip the gate (the
// ratio would measure nothing).
bool check_kernels_baseline(const KernelBenchReport& r,
                            const std::string& baseline_path,
                            double tolerance) {
  if (!r.simd_ran) {
    bench::note("no SIMD build on this machine; skipping kernel gate");
    return true;
  }
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", baseline_path.c_str());
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  bench::print_header("kernel regression check",
                      baseline_path + " (tolerance " +
                          std::to_string(static_cast<int>(tolerance * 100)) +
                          "%)");
  const auto base_records =
      static_cast<std::size_t>(json_number(text, "records"));
  if (base_records != r.records) {
    std::fprintf(stderr,
                 "baseline was measured at %zu records, this run used %zu; "
                 "rerun with --kernels-records=%zu\n",
                 base_records, r.records, base_records);
    return false;
  }
  bool ok = true;
  for (const auto& k : r.kernels) {
    const double base = json_number(text, k.name + "_ratio");
    if (base <= 0.0) {
      std::fprintf(stderr, "baseline missing %s_ratio\n", k.name.c_str());
      ok = false;
      continue;
    }
    const double floor = base * (1.0 - tolerance);
    const bool pass = k.ratio >= floor;
    std::printf("  %-14s baseline %6.3f   median %6.3f   floor %6.3f   %s\n",
                (k.name + "_ratio").c_str(), base, k.ratio, floor,
                pass ? "ok" : "REGRESSED");
    if (!pass) ok = false;
  }
  return ok;
}

// ---- Edge throughput under origin faults ----------------------------------

// The resilience layer (retry/backoff, stale-if-error, negative cache,
// breaker) only runs on origin failures, so its cost must scale with the
// fault rate and be zero at 0%. This section measures edge throughput,
// cache-hit ratio, and the error share actually reaching clients at 0%, 1%,
// and 10% origin failure — the EXPERIMENTS.md fault table comes from here.
void report_fault_resilience() {
  bench::print_header(
      "edge resilience",
      "simulated edge throughput vs deterministic origin fault rate");
  workload::WorkloadGenerator generator(workload::short_term_scenario(0.01, 42));
  const auto workload = generator.generate();
  bench::note("workload: " + std::to_string(workload.events.size()) +
              " requests");

  for (const double rate : {0.0, 0.01, 0.10}) {
    cdn::NetworkParams params;
    if (rate > 0.0) {
      params.faults = faults::composite_fault_plan(
          rate, /*seed=*/1337, /*outages_per_origin=*/0.0, workload.events);
    }
    cdn::CdnNetwork network(generator.catalog().objects(), params);
    bench::Timer timer;
    const auto dataset = network.run(workload.events);
    const double seconds = timer.seconds();

    const auto metrics = network.total_metrics();
    const auto resilience = network.total_resilience();
    const double requests = static_cast<double>(metrics.requests());
    const double error_share =
        requests == 0.0 ? 0.0
                        : static_cast<double>(metrics.errors()) / requests;
    std::printf(
        "  fault rate %5.1f%%  %6.2f Mreq/s   hit ratio %5.3f   "
        "error share %6.4f   stale served %llu   retries %llu   "
        "breaker trips %llu\n",
        100.0 * rate, requests / seconds / 1e6,
        metrics.overall_hit_ratio(), error_share,
        static_cast<unsigned long long>(resilience.stale_served),
        static_cast<unsigned long long>(resilience.retries),
        static_cast<unsigned long long>(resilience.breaker_trips));
    benchmark::DoNotOptimize(dataset.size());
  }
  bench::note(
      "error share counts responses no resilience mechanism could absorb; "
      "the gap to the injected rate is retries + stale-if-error");
}

}  // namespace

int main(int argc, char** argv) {
  // Custom ingest-bench flags, stripped before google-benchmark sees argv:
  //   --ingest-json=PATH     write BENCH_ingest.json-style results to PATH
  //   --ingest-check=PATH    compare ratios against a committed baseline,
  //                          exit non-zero on a >25% regression
  //   --ingest-records=N     workload size (default 1,000,000)
  //   --ingest-only          skip the microbenchmark suite & other reports
  // Out-of-core scale flags (same pattern, .jlog v2 chunk store):
  //   --scale                run the out-of-core scale section
  //   --scale-json=PATH      write BENCH_scale.json-style results to PATH
  //   --scale-check=PATH     compare format ratios against a baseline
  //   --scale-records=N      workload size (default 2,000,000)
  //   --scale-only           run only the scale section
  // Vectorized-kernel flags (same pattern, stats/kernels dual build):
  //   --kernels              run the per-kernel throughput section
  //   --kernels-json=PATH    write BENCH_kernels.json-style results to PATH
  //   --kernels-check=PATH   compare the median SIMD-vs-reference
  //                          throughput ratios against a baseline, exit
  //                          non-zero on a >25% regression
  //   --kernels-records=N    stream length for the array kernels (default
  //                          1,000,000; the fft size is fixed)
  //   --kernels-only         run only the kernels section
  std::string ingest_json_path;
  std::string ingest_check_path;
  std::size_t ingest_records = 1'000'000;
  bool ingest_only = false;
  std::string scale_json_path;
  std::string scale_check_path;
  std::size_t scale_records = 2'000'000;
  bool scale_enabled = false;
  bool scale_only = false;
  std::string kernels_json_path;
  std::string kernels_check_path;
  std::size_t kernels_records = 1'000'000;
  bool kernels_enabled = false;
  bool kernels_only = false;
  // A size flag's value (after '=') takes decimal digits only: `-1` or
  // `abc` exits 2 naming the flag instead of becoming 2^64-1 rows.
  const auto size_flag = [](const std::string& arg) {
    const std::size_t eq = arg.find('=');
    return cli::flag_value<std::size_t>(std::string_view(arg).substr(0, eq),
                                        arg.c_str() + eq + 1);
  };
  {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--ingest-json=", 0) == 0) {
        ingest_json_path = arg.substr(std::strlen("--ingest-json="));
      } else if (arg.rfind("--ingest-check=", 0) == 0) {
        ingest_check_path = arg.substr(std::strlen("--ingest-check="));
      } else if (arg.rfind("--ingest-records=", 0) == 0) {
        ingest_records = size_flag(arg);
      } else if (arg == "--ingest-only") {
        ingest_only = true;
      } else if (arg == "--scale") {
        scale_enabled = true;
      } else if (arg.rfind("--scale-json=", 0) == 0) {
        scale_json_path = arg.substr(std::strlen("--scale-json="));
        scale_enabled = true;
      } else if (arg.rfind("--scale-check=", 0) == 0) {
        scale_check_path = arg.substr(std::strlen("--scale-check="));
        scale_enabled = true;
      } else if (arg.rfind("--scale-records=", 0) == 0) {
        scale_records = size_flag(arg);
        scale_enabled = true;
      } else if (arg == "--scale-only") {
        scale_enabled = true;
        scale_only = true;
      } else if (arg == "--kernels") {
        kernels_enabled = true;
      } else if (arg.rfind("--kernels-json=", 0) == 0) {
        kernels_json_path = arg.substr(std::strlen("--kernels-json="));
        kernels_enabled = true;
      } else if (arg.rfind("--kernels-check=", 0) == 0) {
        kernels_check_path = arg.substr(std::strlen("--kernels-check="));
        kernels_enabled = true;
      } else if (arg.rfind("--kernels-records=", 0) == 0) {
        kernels_records = size_flag(arg);
        kernels_enabled = true;
      } else if (arg == "--kernels-only") {
        kernels_enabled = true;
        kernels_only = true;
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
  }

  if (kernels_enabled) {
    const auto kernel_report = report_kernel_throughput(kernels_records);
    if (!kernels_json_path.empty())
      write_kernels_json(kernel_report, kernels_json_path);
    if (!kernels_check_path.empty() &&
        !check_kernels_baseline(kernel_report, kernels_check_path,
                                /*tolerance=*/0.25))
      return 1;
    if (kernels_only) return 0;
  }

  if (!ingest_only && !scale_only) {
    // A --benchmark_filter that selects benchmarks times only them; one that
    // selects none (--benchmark_filter=NONE) leaves the report sections.
    const bool filtered = std::any_of(argv + 1, argv + argc, [](const char* a) {
      return std::string_view(a).starts_with("--benchmark_filter");
    });
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    const std::size_t benchmarks_run = benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (filtered && benchmarks_run > 0) return 0;
    report_parallel_speedup();
    report_streaming_vs_batch();
    report_fault_resilience();
  }

  if (!scale_only) {
    const auto ingest_report = report_ingest_throughput(ingest_records);
    if (!ingest_json_path.empty())
      write_ingest_json(ingest_report, ingest_json_path);
    if (!ingest_check_path.empty() &&
        !check_against_baseline(ingest_report, ingest_check_path,
                                /*tolerance=*/0.25))
      return 1;
  }

  if (scale_enabled) {
    const auto scale_report = report_scale(scale_records);
    if (!scale_json_path.empty())
      write_scale_json(scale_report, scale_json_path);
    if (!scale_check_path.empty() &&
        !check_scale_baseline(scale_report, scale_check_path,
                              /*tolerance=*/0.25))
      return 1;
  }
  return 0;
}
