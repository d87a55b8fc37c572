#include "workload/adversary.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "workload/generator.h"
#include "workload/sessions.h"

namespace jsoncdn::workload {

std::string_view to_string(AttackKind kind) noexcept {
  switch (kind) {
    case AttackKind::kScraper: return "scraper";
    case AttackKind::kStuffing: return "stuffing";
    case AttackKind::kFlashCrowd: return "flash-crowd";
    case AttackKind::kOversized: return "oversized";
  }
  return "scraper";
}

bool parse_attack_kind(std::string_view text, AttackKind& out) noexcept {
  if (text == "scraper") {
    out = AttackKind::kScraper;
  } else if (text == "stuffing") {
    out = AttackKind::kStuffing;
  } else if (text == "flash-crowd") {
    out = AttackKind::kFlashCrowd;
  } else if (text == "oversized") {
    out = AttackKind::kOversized;
  } else {
    return false;
  }
  return true;
}

namespace {

// Attackers live in their own address space (TEST-NET style), disjoint from
// the benign population's 10.x.y.z, so a client-address join labels every
// hostile request.
std::string attacker_address(std::size_t index) {
  return "203.0." + std::to_string((index >> 8) & 0xff) + "." +
         std::to_string(index & 0xff);
}

// Scraper and amplification bots disclose library stacks (or nothing
// parseable) — machine-class under the edge's two-class split.
const char* scraper_ua(stats::Rng& rng) {
  static const char* kUas[] = {
      "python-requests/2.31.0",
      "Scrapy/2.11.0 (+https://scrapy.org)",
      "curl/8.4.0",
      "Go-http-client/2.0",
  };
  return kUas[static_cast<std::size_t>(rng.uniform_int(0, 3))];
}

// Stuffing bots wear faked browser UAs: UA-based classing sees a human, so
// only per-client rate limiting catches the burst cadence.
const char* stuffing_ua(stats::Rng& rng) {
  static const char* kUas[] = {
      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
      "(KHTML, like Gecko) Chrome/119.0.0.0 Safari/537.36",
      "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 "
      "(KHTML, like Gecko) Chrome/118.0.0.0 Safari/537.36",
  };
  return kUas[static_cast<std::size_t>(rng.uniform_int(0, 1))];
}

// Flash-crowd members are genuine browsers.
const char* flash_ua(stats::Rng& rng) {
  static const char* kUas[] = {
      "Mozilla/5.0 (Linux; Android 13; Pixel 7) AppleWebKit/537.36 "
      "(KHTML, like Gecko) Chrome/119.0.0.0 Mobile Safari/537.36",
      "Mozilla/5.0 (iPhone; CPU iPhone OS 17_0 like Mac OS X) "
      "AppleWebKit/605.1.15 (KHTML, like Gecko) Version/17.0 Mobile/15E148 "
      "Safari/604.1",
      "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/537.36 "
      "(KHTML, like Gecko) Chrome/119.0.0.0 Safari/537.36",
  };
  return kUas[static_cast<std::size_t>(rng.uniform_int(0, 2))];
}

}  // namespace

std::size_t inject_hostile_traffic(Workload& out, const DomainCatalog& catalog,
                                   const HostileConfig& config, double window,
                                   std::size_t benign_events,
                                   stats::Rng rng) {
  if (config.hostile_share <= 0.0 || benign_events == 0) return 0;
  if (config.hostile_share >= 1.0) {
    throw std::invalid_argument(
        "inject_hostile_traffic: hostile_share must be in [0, 1)");
  }

  // hostile / (benign + hostile) == share  =>  hostile = benign * s/(1-s).
  const auto target = static_cast<std::size_t>(
      std::ceil(static_cast<double>(benign_events) * config.hostile_share /
                (1.0 - config.hostile_share)));

  const std::vector<double> weights = {
      config.scraper_weight, config.stuffing_weight,
      config.flash_crowd_weight, config.oversized_weight};
  const double weight_sum = weights[0] + weights[1] + weights[2] + weights[3];
  if (weight_sum <= 0.0) return 0;

  std::size_t attacker_index = 0;
  std::size_t emitted_total = 0;
  // Backstop against degenerate catalogs (empty domains, everything outside
  // the window): no attack loop spins forever chasing an unfillable budget.
  constexpr std::size_t kMaxAttackersPerClass = 100'000;

  // Appends one attacker's in-window events plus their truth row.
  auto commit = [&](std::vector<RequestEvent>&& events, AttackKind kind,
                    const std::string& address, const std::string& ua) {
    std::erase_if(events, [&](const RequestEvent& ev) {
      return ev.time < 0.0 || ev.time >= window;
    });
    if (events.empty()) return std::size_t{0};
    AttackerTruth at;
    at.client_address = address;
    at.user_agent = ua;
    at.kind = kind;
    at.request_count = events.size();
    out.truth.attackers.push_back(std::move(at));
    const auto count = events.size();
    for (auto& ev : events) out.events.push_back(std::move(ev));
    emitted_total += count;
    return count;
  };

  const auto budget_of = [&](double weight) {
    return static_cast<std::size_t>(
        std::floor(static_cast<double>(target) * weight / weight_sum));
  };

  // --- Scrapers: walk a domain's URL space in order, machine cadence. ----
  {
    auto srng = rng.fork("scraper");
    std::size_t budget = budget_of(config.scraper_weight);
    std::size_t spawned = 0;
    while (budget > 0 && spawned++ < kMaxAttackersPerClass) {
      auto bot = srng.fork(attacker_index);
      const auto address = attacker_address(attacker_index++);
      const std::string ua = scraper_ua(bot);
      const auto dom = catalog.sample_domain(bot);
      const auto& domain = catalog.domains()[dom];

      // The full URL space of the domain, walked in catalog order — the
      // breadth-first enumeration signature real scrapers leave.
      std::vector<std::size_t> space;
      space.insert(space.end(), domain.html_objects.begin(),
                   domain.html_objects.end());
      space.insert(space.end(), domain.json_objects.begin(),
                   domain.json_objects.end());
      space.insert(space.end(), domain.asset_objects.begin(),
                   domain.asset_objects.end());
      if (space.empty()) continue;

      const auto want = std::min<std::size_t>(
          budget, static_cast<std::size_t>(bot.uniform_int(200, 900)));
      const double span = static_cast<double>(want) / config.scraper_rate;
      double t = bot.uniform(0.0, std::max(1e-9, window - span));

      std::vector<RequestEvent> events;
      events.reserve(want);
      std::size_t probe = 0;
      for (std::size_t k = 0; k < want; ++k) {
        RequestEvent ev;
        ev.time = t;
        ev.client_address = address;
        ev.user_agent = ua;
        ev.method = http::Method::kGet;
        if (bot.bernoulli(config.scraper_probe_share)) {
          // Probe outside the catalog: tunneled to the origin, answered 404.
          ev.url = "https://" + domain.name + "/.probe/" +
                   std::to_string(probe++);
        } else {
          ev.url = catalog.objects().at(space[k % space.size()]).url;
        }
        events.push_back(std::move(ev));
        t += bot.uniform(0.8, 1.2) / config.scraper_rate;
      }
      budget -= std::min(budget,
                         commit(std::move(events), AttackKind::kScraper,
                                address, ua));
    }
  }

  // --- Credential stuffing: POST bursts against an auth endpoint. --------
  {
    auto srng = rng.fork("stuffing");
    std::size_t budget = budget_of(config.stuffing_weight);
    // All bots in a campaign hit the same target — a popular domain's login
    // route, which is not in the catalog (tunneled, uncacheable).
    const auto tops = catalog.top_domains(3);
    std::size_t spawned = 0;
    while (budget > 0 && !tops.empty() &&
           spawned++ < kMaxAttackersPerClass) {
      auto bot = srng.fork(attacker_index);
      const auto address = attacker_address(attacker_index++);
      const std::string ua = stuffing_ua(bot);
      const auto dom = tops[static_cast<std::size_t>(bot.uniform_int(
          0, static_cast<std::int64_t>(tops.size()) - 1))];
      const std::string url =
          "https://" + catalog.domains()[dom].name + "/api/v1/login";

      const auto burst = std::min<std::size_t>(
          budget, static_cast<std::size_t>(bot.uniform_int(
                      static_cast<std::int64_t>(config.stuffing_burst_lo),
                      static_cast<std::int64_t>(config.stuffing_burst_hi))));
      const double span =
          static_cast<double>(burst) / config.stuffing_burst_rate;
      double t = bot.uniform(0.0, std::max(1e-9, window - span));

      std::vector<RequestEvent> events;
      events.reserve(burst);
      for (std::size_t k = 0; k < burst; ++k) {
        RequestEvent ev;
        ev.time = t;
        ev.client_address = address;
        ev.user_agent = ua;
        ev.method = http::Method::kPost;
        ev.url = url;
        ev.request_bytes = static_cast<std::uint64_t>(bot.uniform_int(90, 160));
        events.push_back(std::move(ev));
        t += bot.uniform(0.8, 1.2) / config.stuffing_burst_rate;
      }
      budget -= std::min(budget,
                         commit(std::move(events), AttackKind::kStuffing,
                                address, ua));
    }
  }

  // --- Flash crowd: correlated browser sessions around one spike. --------
  {
    auto srng = rng.fork("flash");
    std::size_t budget = budget_of(config.flash_crowd_weight);
    const auto tops = catalog.top_domains(1);
    if (!tops.empty()) {
      const auto& domain = catalog.domains()[tops.front()];
      const double spike = srng.uniform(0.35, 0.65) * window;
      BrowserSessionParams session;
      std::size_t spawned = 0;
      while (budget > 0 && spawned++ < kMaxAttackersPerClass) {
        auto member = srng.fork(attacker_index);
        const auto address = attacker_address(attacker_index++);
        const std::string ua = flash_ua(member);
        const double t0 =
            spike + member.normal(0.0, config.flash_spike_stddev_seconds);
        auto events = generate_browser_session(domain, catalog.objects(),
                                               address, ua, t0, session,
                                               member);
        if (events.size() > budget) events.resize(budget);
        budget -= std::min(budget,
                           commit(std::move(events), AttackKind::kFlashCrowd,
                                  address, ua));
      }
    }
  }

  // --- Oversized amplification: hammer the largest bodies. ---------------
  {
    auto srng = rng.fork("oversized");
    std::size_t budget = budget_of(config.oversized_weight);
    // The catalog's largest bodies by size, largest first.
    std::vector<std::size_t> big(catalog.objects().size());
    for (std::size_t i = 0; i < big.size(); ++i) big[i] = i;
    std::sort(big.begin(), big.end(), [&](std::size_t a, std::size_t b) {
      const auto& oa = catalog.objects().at(a);
      const auto& ob = catalog.objects().at(b);
      if (oa.body_bytes != ob.body_bytes) return oa.body_bytes > ob.body_bytes;
      return oa.url < ob.url;  // deterministic tiebreak
    });
    const auto top = std::min(config.oversized_top_objects, big.size());
    std::size_t spawned = 0;
    while (budget > 0 && top > 0 && spawned++ < kMaxAttackersPerClass) {
      auto bot = srng.fork(attacker_index);
      const auto address = attacker_address(attacker_index++);
      const std::string ua = scraper_ua(bot);
      const auto want = std::min<std::size_t>(
          budget, static_cast<std::size_t>(bot.uniform_int(100, 500)));
      const double span = static_cast<double>(want) / config.oversized_rate;
      double t = bot.uniform(0.0, std::max(1e-9, window - span));

      std::vector<RequestEvent> events;
      events.reserve(want);
      for (std::size_t k = 0; k < want; ++k) {
        RequestEvent ev;
        ev.time = t;
        ev.client_address = address;
        ev.user_agent = ua;
        ev.method = http::Method::kGet;
        ev.url = catalog.objects().at(big[k % top]).url;
        events.push_back(std::move(ev));
        t += bot.uniform(0.8, 1.2) / config.oversized_rate;
      }
      budget -= std::min(budget,
                         commit(std::move(events), AttackKind::kOversized,
                                address, ua));
    }
  }

  out.truth.hostile_events += emitted_total;
  return emitted_total;
}

}  // namespace jsoncdn::workload
