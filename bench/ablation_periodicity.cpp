// Periodicity-detector ablations: permutation count x (the paper uses
// x = 100 and reports no change beyond it) and sampling interval (the paper
// uses 1 s, citing network jitter). Scores precision/recall against planted
// ground truth: periodic flows with jitter/dropout vs Poisson flows.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/period_detector.h"
#include "core/periodicity.h"
#include "stats/rng.h"

namespace {

using namespace jsoncdn;

struct Flow {
  std::vector<double> times;
  bool periodic;
};

std::vector<Flow> make_flows(std::size_t per_class, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<Flow> flows;
  const double periods[] = {30.0, 60.0, 120.0, 300.0, 900.0};
  for (std::size_t i = 0; i < per_class; ++i) {
    // Periodic flow with jitter and dropout.
    Flow flow;
    flow.periodic = true;
    const double period = periods[i % std::size(periods)];
    for (int k = 0; k < 40; ++k) {
      if (rng.bernoulli(0.03)) continue;
      flow.times.push_back(period * k + rng.normal(0.0, 0.5));
    }
    std::sort(flow.times.begin(), flow.times.end());
    flows.push_back(std::move(flow));

    // Poisson flow at a matched rate.
    Flow noise;
    noise.periodic = false;
    double t = 0.0;
    for (int k = 0; k < 40; ++k) {
      t += rng.exponential(1.0 / period);
      noise.times.push_back(t);
    }
    flows.push_back(std::move(noise));
  }
  return flows;
}

struct Score {
  double precision = 0.0;
  double recall = 0.0;
  double ms = 0.0;
};

Score score_detector(const core::DetectorParams& params,
                     const std::vector<Flow>& flows) {
  const auto detector =
      core::make_period_detector(core::DetectorStrategy::kAcfFft, params);
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t truth = 0;
  const auto start = std::chrono::steady_clock::now();
  stats::Rng rng(99);
  for (const auto& flow : flows) {
    if (flow.periodic) ++truth;
    const auto result = detector->detect(flow.times, rng);
    if (result.periodic) {
      (flow.periodic ? tp : fp) += 1;
    }
  }
  const auto end = std::chrono::steady_clock::now();
  Score score;
  score.precision = tp + fp == 0 ? 1.0
                                 : static_cast<double>(tp) /
                                       static_cast<double>(tp + fp);
  score.recall =
      truth == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(truth);
  score.ms = std::chrono::duration<double, std::milli>(end - start).count();
  return score;
}

}  // namespace

int main() {
  bench::print_header("Ablation: periodicity detector",
                      "permutations x and sampling interval");
  const auto flows = make_flows(40, 4242);
  std::printf("  %zu flows (half periodic with jitter+dropout, half "
              "Poisson)\n\n",
              flows.size());

  // Wall-clock times go to stderr, so stdout is a deterministic report.
  std::printf("  permutation count x (paper: 100):\n");
  std::printf("  %-8s %-12s %s\n", "x", "precision", "recall");
  for (const std::size_t x : {10u, 25u, 50u, 100u, 200u}) {
    core::DetectorParams params;
    params.permutations = x;
    const auto s = score_detector(params, flows);
    std::printf("  %-8zu %-12.3f %.3f\n", x, s.precision, s.recall);
    std::fprintf(stderr, "  x = %zu: %.1f ms\n", x, s.ms);
  }

  std::printf("\n  sampling interval (paper: 1 s):\n");
  std::printf("  %-8s %-12s %s\n", "dt", "precision", "recall");
  for (const double dt : {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0}) {
    core::DetectorParams params;
    params.sample_interval = dt;
    const auto s = score_detector(params, flows);
    std::printf("  %-8.1f %-12.3f %.3f\n", dt, s.precision, s.recall);
    std::fprintf(stderr, "  dt = %.1f s: %.1f ms\n", dt, s.ms);
  }

  bench::note("");
  bench::note("expected shape: precision high everywhere (permutation test");
  bench::note("controls false positives); x beyond 100 changes little — the");
  bench::note("paper's observation. Coarser sampling erodes recall for the");
  bench::note("shortest periods once dt approaches period/2.");
  return 0;
}
