// Hostile traffic classes: deterministic adversarial workloads layered on
// top of the benign population, with full ground-truth attacker labels so
// tests can score how the paper's detectors and the characterization
// marginals degrade as the hostile share rises — and how well the edge's
// overload protection shields human-class traffic.
//
// Four attack classes, mirroring what a CDN operator actually absorbs:
//
//   scraper      — bots walking a domain's URL space in order at machine
//                  cadence, with a configurable share of probes to URLs that
//                  do not exist (tunneled to the origin as 404s).
//   stuffing     — credential-stuffing bursts: POST floods against an auth
//                  endpoint (/api/v1/login) that is not in the catalog, from
//                  bots wearing faked browser UAs (so only per-client rate
//                  limiting, not UA classing, can stop them).
//   flash-crowd  — a correlated spike of real browser sessions against the
//                  most popular domain, Gaussian around one moment in the
//                  window. Human-class load, not malice: the case shedding
//                  must NOT punish.
//   oversized    — amplification: cheap GETs hammering the catalog's largest
//                  bodies so each request pins an edge worker for a long
//                  transfer.
//
// All randomness flows from the fork discipline of the caller's Rng, so the
// same seed reproduces the same attack bit-for-bit.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "stats/rng.h"
#include "workload/catalog.h"

namespace jsoncdn::workload {

struct Workload;  // defined in workload/generator.h

enum class AttackKind {
  kScraper,
  kStuffing,
  kFlashCrowd,
  kOversized,
};
inline constexpr std::size_t kAttackKindCount = 4;

[[nodiscard]] std::string_view to_string(AttackKind kind) noexcept;
// Parses the to_string() token; returns false on anything else.
[[nodiscard]] bool parse_attack_kind(std::string_view text,
                                     AttackKind& out) noexcept;

struct HostileConfig {
  // Target share of final workload events that are hostile. 0 disables the
  // whole layer (the generator emits no attacker truth and no events).
  double hostile_share = 0.0;

  // Relative event-budget weights per attack class (0 disables a class).
  double scraper_weight = 0.35;
  double stuffing_weight = 0.20;
  double flash_crowd_weight = 0.30;
  double oversized_weight = 0.15;

  // The scenario presets and the CLIs set the share and the weights; each
  // class's shape below is a constant.

  // Scrapers: requests/second per bot and the share of requests probing
  // URLs outside the catalog.
  static constexpr double scraper_rate = 6.0;
  static constexpr double scraper_probe_share = 0.25;

  // Credential stuffing: in-burst request rate and burst size range.
  static constexpr double stuffing_burst_rate = 20.0;
  static constexpr std::size_t stuffing_burst_lo = 40;
  static constexpr std::size_t stuffing_burst_hi = 160;

  // Flash crowd: session start times are Gaussian around a spike moment
  // drawn uniformly from the middle of the window.
  static constexpr double flash_spike_stddev_seconds = 25.0;

  // Oversized amplification: how many of the largest catalog bodies are
  // targeted, and the per-bot request rate.
  static constexpr std::size_t oversized_top_objects = 5;
  static constexpr double oversized_rate = 3.0;
};

// One attacker client (attackers get dedicated TEST-NET-style addresses, so
// a client-address join turns these into per-request labels).
struct AttackerTruth {
  std::string client_address;
  std::string user_agent;
  AttackKind kind = AttackKind::kScraper;
  std::size_t request_count = 0;  // in-window events actually emitted
};

// Appends hostile events (all inside [0, window)) and attacker truth to
// `out`, sized so hostile traffic is ~`hostile_share` of the final stream
// given `benign_events` already present. Caller re-sorts afterwards.
// Returns the number of hostile events emitted.
std::size_t inject_hostile_traffic(Workload& out, const DomainCatalog& catalog,
                                   const HostileConfig& config, double window,
                                   std::size_t benign_events, stats::Rng rng);

}  // namespace jsoncdn::workload
