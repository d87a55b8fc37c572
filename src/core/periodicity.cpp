#include "core/periodicity.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>

#include "core/period_detector.h"
#include "core/periodicity_internal.h"
#include "http/method.h"
#include "stats/autocorrelation.h"
#include "stats/fft.h"
#include "stats/hash.h"
#include "stats/parallel.h"
#include "stats/timeseries.h"

namespace jsoncdn::core {

namespace detail {

BinnedFlow bin_flow(const DetectorParams& params,
                    std::span<const double> times,
                    std::vector<double>& signal) {
  BinnedFlow out;
  if (times.size() < params.min_requests) return out;
  const double t0 = times.front();
  const double t1 = times.back();
  const double span = t1 - t0;
  if (span <= params.sample_interval * 4.0) return out;
  out.span = span;

  // Effective bin width: the paper's 1 s, widened when the flow spans so
  // long that the signal would exceed the sample cap — or the density cap:
  // n events never need more than samples_per_event * n bins.
  const std::size_t sample_cap = std::min(
      params.max_signal_samples,
      std::max<std::size_t>(256, stats::next_pow2(params.samples_per_event *
                                                  times.size())));
  const double dt = std::max(params.sample_interval,
                             span / static_cast<double>(sample_cap));
  out.dt = dt;

  stats::bin_events(times, t0, t1 + dt, dt, signal);
  // A period must repeat min_cycles times within the span to be trusted, so
  // lags beyond span/min_cycles are not considered.
  const auto max_lag = static_cast<std::size_t>(
      std::floor(span / params.min_cycles / dt));
  if (max_lag < 2) return out;
  out.max_lag = max_lag;
  out.usable = true;
  return out;
}

bool permutation_null(
    std::span<const double> source, std::size_t max_lag,
    std::size_t permutations, stats::Rng& rng, DetectScratch& scratch,
    stats::SpectralAnalysis& spectra,
    const std::function<bool(const LaneMaxima& observed,
                             const LaneMaxima& shuffled)>& stop) {
  constexpr std::size_t kLanes = stats::kSpectralLanes;
  const std::size_t n = source.size();
  scratch.shuffled.resize(kLanes * n);
  // Engine state after each lane's shuffle but the batch's last: a stop at
  // lane j rewinds to snapshot j, undoing the later lanes' draws.
  std::array<std::mt19937_64, kLanes - 1> snapshots;
  std::array<const double*, kLanes> lanes{source.data()};
  LaneMaxima observed;
  const double* previous = source.data();
  // The first batch's shuffles start in lane 1, after the observed signal.
  std::size_t first = 1;
  for (std::size_t drawn = 0;; first = 0) {
    const std::size_t live = std::min(kLanes, first + permutations - drawn);
    for (std::size_t l = first; l < live; ++l) {
      double* lane = scratch.shuffled.data() + l * n;
      std::copy(previous, previous + n, lane);
      std::shuffle(lane, lane + n, rng.engine());
      if (l + 1 < live) snapshots[l] = rng.engine();
      lanes[l] = previous = lane;
    }
    drawn += live - first;
    const auto maxima = stats::spectral_maxima(
        std::span(lanes.data(), live), n, max_lag, scratch.workspace,
        first == 1 ? &spectra : nullptr);
    if (first == 1) observed = {maxima.acf_peak[0], maxima.power[0]};
    for (std::size_t l = first; l < live; ++l) {
      if (stop(observed, {maxima.acf_peak[l], maxima.power[l]})) {
        if (l + 1 < live) rng.engine() = snapshots[l];
        return false;
      }
    }
    if (drawn == permutations) return true;
  }
}

FlowAnalysis analyze_signal(const DetectorParams& params,
                            std::span<const double> signal, double dt,
                            double span, std::size_t max_lag,
                            stats::Rng& rng, DetectScratch& scratch) {
  FlowAnalysis out;
  out.dt = dt;
  out.usable = true;

  // --- Permutation null model (steps 2-3) --------------------------------
  // Shuffling the binned signal preserves the count distribution (hence the
  // rate) while destroying all temporal structure — the null model of
  // Vlachos et al. Note gap-shuffling would NOT work: a clean periodic flow
  // has near-constant gaps, so any gap order reproduces the same periodic
  // signal and the flow would refute its own significance.
  //
  // Early termination (exact): detection requires the observed maxima to
  // exceed the "(x-1)th largest" null maxima — the second largest when
  // sorted ascending. As soon as two null maxima exceed an observed
  // maximum, that threshold is unreachable and the flow is aperiodic; no
  // further permutations can change the outcome. Aperiodic flows (the vast
  // majority) therefore cost only a handful of FFTs. The observed signal's
  // own pass, which yields its ACF and periodogram, is lane 0 of the first
  // batch.
  auto& null_acf_max = scratch.null_acf_max;
  auto& null_power_max = scratch.null_power_max;
  null_acf_max.clear();
  null_power_max.clear();
  null_acf_max.reserve(params.permutations);
  null_power_max.reserve(params.permutations);
  std::size_t acf_exceed = 0;
  std::size_t power_exceed = 0;
  const bool completed = permutation_null(
      signal, max_lag, params.permutations, rng, scratch, scratch.spectral,
      [&](const LaneMaxima& observed, const LaneMaxima& null) {
        null_acf_max.push_back(null.acf_peak);
        null_power_max.push_back(null.power);
        if (null.acf_peak >= observed.acf_peak) ++acf_exceed;
        if (null.power >= observed.power) ++power_exceed;
        return acf_exceed >= 2 || power_exceed >= 2;  // cannot pass
      });
  if (!completed) return out;
  const auto& spec = scratch.spectral;
  const auto& acf = spec.acf;
  // "(x-1)th largest" == second largest when sorted ascending: index x-2.
  std::sort(null_acf_max.begin(), null_acf_max.end());
  std::sort(null_power_max.begin(), null_power_max.end());
  out.acf_threshold = null_acf_max[params.permutations - 2];
  out.power_threshold = null_power_max[params.permutations - 2];
  out.significant = true;

  // --- Line up periodogram hints with ACF peaks (step 4) -----------------
  const auto peaks = stats::acf_peaks(acf);
  std::vector<std::size_t> candidates;
  for (std::size_t k = 0; k < spec.pgram_power.size(); ++k) {
    if (spec.pgram_power[k] > out.power_threshold) candidates.push_back(k);
  }

  // A significant spectral line at frequency f licenses periods near any
  // multiple m/f of the corresponding period: in multi-client aggregates the
  // harmonics of the true period routinely carry more (and sometimes the
  // only significant) spectral power, while the fundamental shows up as the
  // dominant ACF peak at a multiple of the harmonic's period.
  const double max_period = span / params.min_cycles;
  std::unordered_map<std::size_t, double> power_of_lag;
  for (const auto k : candidates) {
    const double base_period = spec.pgram_period_samples(k) * dt;
    if (base_period < 2.0 * dt) continue;
    for (double period = base_period; period <= max_period;
         period += base_period) {
      for (const auto lag : peaks) {
        const double lag_period = static_cast<double>(lag) * dt;
        if (!relative_periods_match(lag_period, period,
                                    params.period_match_tolerance))
          continue;
        if (acf[lag] <= out.acf_threshold) continue;
        auto [it, inserted] =
            power_of_lag.try_emplace(lag, spec.pgram_power[k]);
        if (!inserted) it->second = std::max(it->second, spec.pgram_power[k]);
      }
    }
  }
  out.matches.reserve(power_of_lag.size());
  for (const auto& [lag, power] : power_of_lag) {
    out.matches.push_back({lag, acf[lag], power});
  }
  std::sort(out.matches.begin(), out.matches.end(),
            [](const FlowAnalysis::Match& a, const FlowAnalysis::Match& b) {
              return a.value > b.value;
            });
  return out;
}

void pick_fundamentals(const FlowAnalysis& analysis, double tolerance,
                       std::size_t max_periods,
                       std::vector<PeriodDetection>& out) {
  // The true period and its multiples all carry near-equal ACF peaks; a
  // fundamental is the smallest matched lag whose peak is comparable
  // (>= 0.5x) to the strongest remaining peak. Binning can split a
  // fundamental's peak across two adjacent lags (a non-integer period in
  // samples costs up to half the peak), while spurious aggregate cross-term
  // peaks sit far below half of a genuine period's peak. Each accepted
  // fundamental absorbs its near-multiples so a second *distinct* period —
  // not a harmonic family member — can surface next.
  std::vector<FlowAnalysis::Match> remaining = analysis.matches;
  while (!remaining.empty() && out.size() < max_periods) {
    const double vmax = remaining.front().value;
    const FlowAnalysis::Match* best = nullptr;
    for (const auto& m : remaining) {
      if (m.value < 0.5 * vmax) continue;
      if (best == nullptr || m.lag < best->lag) best = &m;
    }
    PeriodDetection det;
    det.periodic = true;
    det.period_seconds = static_cast<double>(best->lag) * analysis.dt;
    det.acf_peak_value = best->value;
    det.periodogram_power = best->power;
    det.acf_threshold = analysis.acf_threshold;
    det.power_threshold = analysis.power_threshold;
    const double accepted = det.period_seconds;
    out.push_back(det);

    // Drop this period and everything that is a near-multiple of it.
    std::erase_if(remaining, [&](const FlowAnalysis::Match& m) {
      const double period = static_cast<double>(m.lag) * analysis.dt;
      const double ratio = period / accepted;
      const double nearest = std::max(1.0, std::round(ratio));
      return std::abs(ratio - nearest) / nearest <= tolerance;
    });
  }
}

}  // namespace detail

namespace {

// The per-object-flow unit of parallel work: the object flow's detection
// plus all of its client flows. Randomness is forked from the root seed by
// (url, client) keys, so the result is independent of which worker runs it
// and of the order flows are processed in.
ObjectPeriodicity analyze_object_flow(const PeriodDetector& detector,
                                      const logs::ObjectFlow& flow,
                                      const stats::Rng& root,
                                      DetectScratch& scratch) {
  ObjectPeriodicity obj;
  obj.url = flow.url;
  obj.total_requests = flow.total_requests;
  obj.uncacheable_share = flow.uncacheable_share;
  obj.upload_share = flow.upload_share;

  const std::size_t max_det = detector.max_detections();

  // Independent, order-insensitive randomness per flow.
  stats::Rng obj_rng = root.fork(stats::fnv1a64(flow.url));
  const auto obj_detections =
      detector.detect_all(flow.times, obj_rng, max_det, scratch);
  if (!obj_detections.empty()) {
    obj.object_periodic = obj_detections.front().periodic;
    obj.object_period_seconds = obj_detections.front().period_seconds;
    for (std::size_t i = 1; i < obj_detections.size(); ++i)
      obj.extra_periods.push_back(obj_detections[i].period_seconds);
  }

  for (const auto& cof : flow.clients) {
    ClientPeriodRecord rec;
    rec.client = cof.client;
    rec.requests = cof.times.size();
    stats::Rng client_rng =
        root.fork(stats::fnv1a64(cof.client, stats::fnv1a64(flow.url)));
    const auto detections =
        detector.detect_all(cof.times, client_rng, max_det, scratch);
    if (!detections.empty()) {
      rec.periodic = detections.front().periodic;
      rec.period_seconds = detections.front().period_seconds;
      for (std::size_t i = 1; i < detections.size(); ++i)
        rec.extra_periods.push_back(detections[i].period_seconds);
    }
    // A client matches the object when ANY of its detected periods agrees
    // with ANY of the object's. With a single-period strategy both lists
    // hold one period and this reduces to the original primary-vs-primary
    // check.
    if (obj.object_periodic && rec.periodic) {
      const auto matches_any = [&](double client_period) {
        if (detector.periods_match(client_period, obj.object_period_seconds))
          return true;
        for (const double p : obj.extra_periods)
          if (detector.periods_match(client_period, p)) return true;
        return false;
      };
      rec.matches_object = matches_any(rec.period_seconds);
      for (const double p : rec.extra_periods) {
        if (rec.matches_object) break;
        rec.matches_object = matches_any(p);
      }
    }
    if (rec.matches_object) {
      ++obj.periodic_client_count;
      obj.periodic_requests += rec.requests;
    }
    obj.clients.push_back(std::move(rec));
  }
  if (!obj.clients.empty()) {
    obj.periodic_client_share =
        static_cast<double>(obj.periodic_client_count) /
        static_cast<double>(obj.clients.size());
  }
  return obj;
}

// The whole analysis after flow extraction depends only on the ObjectFlow
// values.
PeriodicityReport analyze_flows(const std::vector<logs::ObjectFlow>& flows,
                                std::size_t input_requests,
                                const PeriodicityConfig& config) {
  const auto detector = make_period_detector(config.strategy, config.detector);
  const stats::Rng root(config.seed);

  PeriodicityReport report;
  report.total_requests = config.total_requests_override > 0
                              ? config.total_requests_override
                              : input_requests;

  // Fan out one task per object flow with index-ordered placement; the
  // sequential merge below then visits objects in the same order as the
  // serial loop did, so the report is bit-identical for any thread count.
  stats::ThreadPool pool(config.threads);
  std::vector<ObjectPeriodicity> objects(flows.size());
  stats::parallel_for(
      pool, flows.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        DetectScratch scratch;
        for (std::size_t i = begin; i < end; ++i)
          objects[i] = analyze_object_flow(*detector, flows[i], root, scratch);
      });

  std::uint64_t periodic_uncacheable_weight = 0;
  std::uint64_t periodic_upload_weight = 0;

  for (auto& obj : objects) {
    if (obj.object_periodic) {
      report.object_periods.push_back(obj.object_period_seconds);
      if (!obj.clients.empty())
        report.periodic_client_shares.push_back(obj.periodic_client_share);
    }
    report.periodic_requests += obj.periodic_requests;
    periodic_uncacheable_weight += static_cast<std::uint64_t>(
        std::llround(obj.uncacheable_share *
                     static_cast<double>(obj.periodic_requests)));
    periodic_upload_weight += static_cast<std::uint64_t>(
        std::llround(obj.upload_share *
                     static_cast<double>(obj.periodic_requests)));
    report.objects.push_back(std::move(obj));
  }

  if (report.total_requests > 0) {
    report.periodic_request_share =
        static_cast<double>(report.periodic_requests) /
        static_cast<double>(report.total_requests);
  }
  if (report.periodic_requests > 0) {
    report.periodic_uncacheable_share =
        static_cast<double>(periodic_uncacheable_weight) /
        static_cast<double>(report.periodic_requests);
    report.periodic_upload_share =
        static_cast<double>(periodic_upload_weight) /
        static_cast<double>(report.periodic_requests);
  }
  return report;
}

}  // namespace

PeriodicityReport analyze_periodicity(const logs::TableView& view,
                                      const PeriodicityConfig& config) {
  return analyze_flows(logs::extract_object_flows(view), view.size(), config);
}

}  // namespace jsoncdn::core
