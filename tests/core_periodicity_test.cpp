#include "core/periodicity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "core/period_detector.h"
#include "core/periodicity_internal.h"
#include "stats/autocorrelation.h"
#include "workload/sessions.h"

namespace jsoncdn::core {
namespace {

std::vector<double> periodic_times(double period, std::size_t count,
                                   double jitter, std::uint64_t seed,
                                   double dropout = 0.0) {
  stats::Rng rng(seed);
  std::vector<double> times;
  for (std::size_t i = 0; i < count; ++i) {
    if (dropout > 0.0 && rng.bernoulli(dropout)) continue;
    double t = period * static_cast<double>(i);
    if (jitter > 0.0) t += rng.normal(0.0, jitter);
    times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  return times;
}

std::vector<double> poisson_times(double rate, double duration,
                                  std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> times;
  double t = 0.0;
  while (true) {
    t += rng.exponential(rate);
    if (t >= duration) break;
    times.push_back(t);
  }
  return times;
}

DetectorParams fast_params() {
  DetectorParams params;
  params.permutations = 100;
  return params;
}

std::unique_ptr<PeriodDetector> acf_fft(const DetectorParams& params) {
  return make_period_detector(DetectorStrategy::kAcfFft, params);
}

// --- detector on planted periods, across period x jitter ------------------

struct PlantedCase {
  double period;
  double jitter;
};

class PlantedPeriodTest : public ::testing::TestWithParam<PlantedCase> {};

TEST_P(PlantedPeriodTest, DetectsWithinTolerance) {
  const auto [period, jitter] = GetParam();
  const auto times = periodic_times(period, 40, jitter, 7, 0.02);
  const auto detector = acf_fft(fast_params());
  stats::Rng rng(1);
  const auto result = detector->detect(times, rng);
  ASSERT_TRUE(result.periodic) << "period=" << period << " jitter=" << jitter;
  EXPECT_NEAR(result.period_seconds, period, period * 0.15);
  EXPECT_GT(result.acf_peak_value, result.acf_threshold);
}

INSTANTIATE_TEST_SUITE_P(
    PeriodsAndJitter, PlantedPeriodTest,
    ::testing::Values(PlantedCase{30.0, 0.0}, PlantedCase{30.0, 0.5},
                      PlantedCase{30.0, 1.5}, PlantedCase{60.0, 0.5},
                      PlantedCase{120.0, 1.0}, PlantedCase{300.0, 2.0},
                      PlantedCase{900.0, 5.0}, PlantedCase{1800.0, 10.0}));

TEST(PeriodicityDetector, RejectsPoissonTraffic) {
  const auto detector = acf_fft(fast_params());
  int false_positives = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto times = poisson_times(1.0 / 30.0, 2400.0, seed);
    if (times.size() < 10) continue;
    stats::Rng rng(seed + 100);
    if (detector->detect(times, rng).periodic) ++false_positives;
  }
  // The threshold targets ~p=0.01 per test; a couple of hits in 20 noisy
  // flows would already be unusual.
  EXPECT_LE(false_positives, 2);
}

TEST(PeriodicityDetector, RejectsTooFewRequests) {
  const auto detector = acf_fft(fast_params());
  stats::Rng rng(1);
  const std::vector<double> times = {0.0, 30.0, 60.0};
  EXPECT_FALSE(detector->detect(times, rng).periodic);
}

TEST(PeriodicityDetector, RejectsBurstOfSimultaneousRequests) {
  const auto detector = acf_fft(fast_params());
  stats::Rng rng(1);
  std::vector<double> times(50, 1.0);  // zero span
  EXPECT_FALSE(detector->detect(times, rng).periodic);
}

TEST(PeriodicityDetector, NeedsMinCyclesInWindow) {
  // Period 1000 s but only ~2 cycles observed: must not report it.
  const auto times = periodic_times(1000.0, 3, 0.0, 1);
  const auto detector = acf_fft(fast_params());
  stats::Rng rng(2);
  const auto result = detector->detect(times, rng);
  EXPECT_FALSE(result.periodic);
}

TEST(PeriodicityDetector, DeterministicGivenSameRngSeed) {
  const auto times = periodic_times(60.0, 30, 0.5, 3);
  const auto detector = acf_fft(fast_params());
  stats::Rng r1(5);
  stats::Rng r2(5);
  const auto a = detector->detect(times, r1);
  const auto b = detector->detect(times, r2);
  EXPECT_EQ(a.periodic, b.periodic);
  EXPECT_DOUBLE_EQ(a.period_seconds, b.period_seconds);
}

TEST(PeriodicityDetector, PeriodsMatchTolerance) {
  const auto detector = acf_fft(DetectorParams{});
  EXPECT_TRUE(detector->periods_match(30.0, 30.0));
  EXPECT_TRUE(detector->periods_match(30.0, 33.0));
  EXPECT_FALSE(detector->periods_match(30.0, 40.0));
  EXPECT_FALSE(detector->periods_match(30.0, 60.0));
  EXPECT_FALSE(detector->periods_match(0.0, 30.0));
}

TEST(PeriodicityDetector, RejectsBadParams) {
  // Every strategy runs the same check over the same two settable fields.
  using Spoil = std::function<void(DetectorParams&)>;
  const std::vector<std::pair<std::string, Spoil>> bad = {
      {"sample_interval", [](DetectorParams& p) { p.sample_interval = 0.0; }},
      {"permutations", [](DetectorParams& p) { p.permutations = 1; }},
  };
  for (const auto& info : detector_registry()) {
    EXPECT_NO_THROW((void)make_period_detector(info.strategy, {}))
        << info.name;
    for (const auto& [field, spoil] : bad) {
      DetectorParams params;
      spoil(params);
      EXPECT_THROW((void)make_period_detector(info.strategy, params),
                   std::invalid_argument)
          << info.name << ": " << field;
    }
  }
}

TEST(PeriodicityDetector, LongPeriodLongSpanStillResolved) {
  // 30-minute period over a day: exercises the adaptive re-binning path.
  const auto times = periodic_times(1800.0, 48, 5.0, 9);
  const auto detector = acf_fft(fast_params());
  stats::Rng rng(10);
  const auto result = detector->detect(times, rng);
  ASSERT_TRUE(result.periodic);
  EXPECT_NEAR(result.period_seconds, 1800.0, 1800.0 * 0.15);
}

// --- the batched permutation null keeps the serial engine contract --------

// The maxima the permutation test reads from one spectral pass.
detail::LaneMaxima maxima_of(const stats::SpectralAnalysis& spec) {
  detail::LaneMaxima m;
  for (const std::size_t k : stats::acf_peaks(spec.acf))
    m.acf_peak = std::max(m.acf_peak, spec.acf[k]);
  for (const double p : spec.pgram_power) m.power = std::max(m.power, p);
  return m;
}

// The loop the batched null replaced, kept as the reference: one buffer
// shuffled in place, one spectral pass per permutation, the stop rule
// checked after each.
struct SerialNull {
  std::vector<double> acf_max;
  std::vector<double> power_max;
  bool completed = true;
};

SerialNull serial_null(std::span<const double> source, std::size_t max_lag,
                       std::size_t permutations, stats::Rng& rng,
                       const std::function<bool(double, double)>& stop) {
  SerialNull out;
  std::vector<double> shuffled(source.begin(), source.end());
  stats::SpectralWorkspace ws;
  stats::SpectralAnalysis spec;
  for (std::size_t p = 0; p < permutations; ++p) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
    stats::spectral_analysis(shuffled, max_lag, ws, spec);
    const auto [a, w] = maxima_of(spec);
    out.acf_max.push_back(a);
    out.power_max.push_back(w);
    if (stop(a, w)) {
      out.completed = false;
      break;
    }
  }
  return out;
}

TEST(PermutationNull, MatchesTheSerialLoopWhereverItStops) {
  // A binned Poisson flow: the signal shape the null shuffles.
  DetectorParams params;
  std::vector<double> signal;
  const auto binned =
      detail::bin_flow(params, poisson_times(1.0 / 20.0, 3000.0, 4), signal);
  ASSERT_TRUE(binned.usable);
  // The observed signal rides lane 0 of the first batch: its maxima reach
  // every stop call, and its spectra are the single-signal pass's.
  const auto expected_spectra =
      stats::spectral_analysis(signal, binned.max_lag);
  const auto expected_observed = maxima_of(expected_spectra);
  constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
  for (const std::size_t permutations : {2u, 3u, 5u, 100u}) {
    // Shuffle p runs in lane (p + 1) % 4 of batch (p + 1) / 4. Stops at
    // every lane position of the first batches (partial ones too), at the
    // last permutation, and never.
    std::vector<std::size_t> stops;
    for (std::size_t p = 0; p < std::min<std::size_t>(permutations, 10); ++p)
      stops.push_back(p);
    stops.push_back(permutations - 1);
    stops.push_back(kNever);
    for (const std::size_t stop_at : stops) {
      std::size_t calls = 0;
      SerialNull batched;
      stats::Rng rng(11);
      DetectScratch scratch;
      stats::SpectralAnalysis spectra;
      batched.completed = detail::permutation_null(
          signal, binned.max_lag, permutations, rng, scratch, spectra,
          [&](const detail::LaneMaxima& observed,
              const detail::LaneMaxima& null) {
            EXPECT_EQ(observed.acf_peak, expected_observed.acf_peak);
            EXPECT_EQ(observed.power, expected_observed.power);
            batched.acf_max.push_back(null.acf_peak);
            batched.power_max.push_back(null.power);
            return calls++ == stop_at;
          });
      std::size_t ref_calls = 0;
      stats::Rng ref_rng(11);
      const auto ref = serial_null(
          signal, binned.max_lag, permutations, ref_rng,
          [&](double, double) { return ref_calls++ == stop_at; });
      EXPECT_EQ(batched.completed, ref.completed);
      EXPECT_EQ(batched.acf_max, ref.acf_max);
      EXPECT_EQ(batched.power_max, ref.power_max);
      EXPECT_EQ(spectra.acf, expected_spectra.acf);
      EXPECT_EQ(spectra.pgram_power, expected_spectra.pgram_power);
      EXPECT_EQ(spectra.padded_size, expected_spectra.padded_size);
      EXPECT_TRUE(rng.engine() == ref_rng.engine())
          << "permutations=" << permutations << " stop_at=" << stop_at;
    }
  }
}

TEST(PermutationNull, DetectAllLeavesTheEngineWhereTheSerialLoopWould) {
  std::vector<std::vector<double>> flows;
  for (std::uint64_t seed = 0; seed < 24; ++seed)
    flows.push_back(poisson_times(1.0 / 25.0, 2400.0, seed));
  flows.push_back(periodic_times(60.0, 40, 0.5, 3));
  flows.push_back(periodic_times(30.0, 80, 0.0, 5));

  for (const std::size_t permutations : {2u, 3u, 5u, 100u}) {
    DetectorParams params;
    params.permutations = permutations;
    // Where each flow's null stopped: the lane of the stopping shuffle
    // (shuffle p runs in lane (p + 1) % 4, after the observed signal in
    // lane 0 of the first batch), or 4 for a null that ran to the end.
    // Checked for coverage below.
    std::set<std::size_t> stop_lanes;
    std::size_t thresholds_checked = 0;
    for (const auto strategy :
         {DetectorStrategy::kAcfFft, DetectorStrategy::kMultiPeriod,
          DetectorStrategy::kAutoperiod}) {
      const auto detector = make_period_detector(strategy, params);
      const bool power_only = strategy == DetectorStrategy::kAutoperiod;
      for (std::size_t f = 0; f < flows.size(); ++f) {
        std::vector<double> signal;
        const auto binned = detail::bin_flow(params, flows[f], signal);
        if (!binned.usable) continue;
        // The observed maxima and stop rule of the strategy's null: the
        // acf-fft rule (also multi-period's first pass) or autoperiod's
        // power-only rule over the raw signal.
        const std::size_t max_lag =
            power_only ? std::min(binned.max_lag, signal.size() - 1)
                       : binned.max_lag;
        const auto [acf_obs, power_obs] =
            maxima_of(stats::spectral_analysis(signal, max_lag));
        std::size_t acf_exceed = 0;
        std::size_t power_exceed = 0;
        stats::Rng ref_rng(100 + f);
        const auto ref = serial_null(
            signal, max_lag, permutations, ref_rng, [&](double a, double w) {
              if (!power_only && a >= acf_obs) ++acf_exceed;
              if (w >= power_obs) ++power_exceed;
              return acf_exceed >= 2 || power_exceed >= 2;
            });
        stop_lanes.insert(ref.completed ? 4 : ref.acf_max.size() % 4);

        // One detection at most, so multi-period runs a single pass.
        stats::Rng rng(100 + f);
        const auto detections = detector->detect_all(flows[f], rng, 1);
        EXPECT_TRUE(rng.engine() == ref_rng.engine())
            << detector->name() << " permutations=" << permutations
            << " flow " << f;
        if (!ref.completed) {
          EXPECT_TRUE(detections.empty());
          continue;
        }
        auto acf_sorted = ref.acf_max;
        auto power_sorted = ref.power_max;
        std::sort(acf_sorted.begin(), acf_sorted.end());
        std::sort(power_sorted.begin(), power_sorted.end());
        for (const auto& det : detections) {
          ++thresholds_checked;
          EXPECT_EQ(det.power_threshold, power_sorted[permutations - 2]);
          if (!power_only) {
            EXPECT_EQ(det.acf_threshold, acf_sorted[permutations - 2]);
          }
        }
      }
    }
    // The flows exercise a stop in every lane position (a stop needs two
    // exceedances, so the first permutation never stops), a full run, and
    // detections whose thresholds the null set.
    if (permutations == 100) {
      EXPECT_EQ(stop_lanes, (std::set<std::size_t>{0, 1, 2, 3, 4}));
    }
    EXPECT_GT(thresholds_checked, 0u) << "permutations=" << permutations;
  }
}

// --- dataset-level analysis ------------------------------------------------

logs::LogRecord rec(double t, const std::string& client,
                    const std::string& url,
                    http::Method method = http::Method::kGet) {
  logs::LogRecord r;
  r.timestamp = t;
  r.client_id = client;
  r.user_agent = "ua";
  r.url = url;
  r.domain = "d";
  r.content_type = "application/json";
  r.method = method;
  r.cache_status = logs::CacheStatus::kNotCacheable;
  return r;
}

logs::LogTable mixed_dataset() {
  logs::LogTable ds;
  // Periodic object: 12 clients polling at 60 s (shared period), offset
  // phases.
  for (int c = 0; c < 12; ++c) {
    stats::Rng rng(100 + c);
    const double phase = rng.uniform(0.0, 60.0);
    for (int i = 0; i < 25; ++i) {
      ds.append(rec(phase + 60.0 * i + rng.normal(0.0, 0.3),
                    "p" + std::to_string(c), "https://d/poll"));
    }
  }
  // Aperiodic object: 12 clients with Poisson traffic.
  for (int c = 0; c < 12; ++c) {
    stats::Rng rng(200 + c);
    double t = 0.0;
    for (int i = 0; i < 25; ++i) {
      t += rng.exponential(1.0 / 60.0);
      ds.append(rec(t, "a" + std::to_string(c), "https://d/random",
                    http::Method::kPost));
    }
  }
  ds.sort_by_time();
  return ds;
}

TEST(AnalyzePeriodicity, SeparatesPeriodicFromPoissonObjects) {
  const auto ds = mixed_dataset();
  PeriodicityConfig config;
  const auto report = analyze_periodicity(logs::TableView(ds), config);
  ASSERT_EQ(report.objects.size(), 2u);

  const auto* poll = &report.objects[0];
  const auto* random = &report.objects[1];
  if (poll->url != "https://d/poll") std::swap(poll, random);

  EXPECT_TRUE(poll->object_periodic);
  EXPECT_NEAR(poll->object_period_seconds, 60.0, 9.0);
  EXPECT_GT(poll->periodic_client_share, 0.8);

  EXPECT_EQ(random->periodic_client_count, 0u);
}

TEST(AnalyzePeriodicity, ReportAggregatesShares) {
  const auto ds = mixed_dataset();
  PeriodicityConfig config;
  const auto report = analyze_periodicity(logs::TableView(ds), config);
  EXPECT_EQ(report.total_requests, ds.size());
  EXPECT_GT(report.periodic_requests, 0u);
  EXPECT_NEAR(report.periodic_request_share,
              static_cast<double>(report.periodic_requests) /
                  static_cast<double>(ds.size()),
              1e-12);
  // The periodic object is GET + uncacheable in this dataset.
  EXPECT_NEAR(report.periodic_uncacheable_share, 1.0, 1e-9);
  EXPECT_NEAR(report.periodic_upload_share, 0.0, 1e-9);
  ASSERT_EQ(report.object_periods.size(), 1u);
  ASSERT_EQ(report.periodic_client_shares.size(), 1u);
}

TEST(AnalyzePeriodicity, DeterministicAcrossRuns) {
  const auto ds = mixed_dataset();
  PeriodicityConfig config;
  const auto a = analyze_periodicity(logs::TableView(ds), config);
  const auto b = analyze_periodicity(logs::TableView(ds), config);
  EXPECT_EQ(a.periodic_requests, b.periodic_requests);
  EXPECT_EQ(a.object_periods, b.object_periods);
}

TEST(AnalyzePeriodicity, FlowFilterExcludesSmallObjects) {
  logs::LogTable ds;
  // 3 clients only -> below the >=10 clients filter.
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 20; ++i) {
      ds.append(rec(60.0 * i, "c" + std::to_string(c), "https://d/x"));
    }
  }
  const auto report =
      analyze_periodicity(logs::TableView(ds), PeriodicityConfig{});
  EXPECT_TRUE(report.objects.empty());
  EXPECT_EQ(report.periodic_requests, 0u);
}

}  // namespace
}  // namespace jsoncdn::core
