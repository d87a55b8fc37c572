#include "oracle/metamorphic.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "stats/hash.h"
#include "stats/rng.h"

namespace jsoncdn::oracle {

namespace {

constexpr std::string_view kScheme = "https://";

std::string insert_infix(const std::string& url, const std::string& infix) {
  if (url.rfind(kScheme, 0) != 0) {
    throw std::invalid_argument("rename_urls_order_preserving: URL without " +
                                std::string(kScheme) + " scheme: " + url);
  }
  std::string out;
  out.reserve(url.size() + infix.size());
  out.append(kScheme);
  out.append(infix);
  out.append(url, kScheme.size(), std::string::npos);
  return out;
}

// The view's rows as owned records, in view order.
std::vector<logs::LogRecord> records_of(const logs::TableView& view) {
  std::vector<logs::LogRecord> out;
  out.reserve(view.size());
  for (std::size_t k = 0; k < view.size(); ++k)
    out.push_back(view.table().record(view[k]));
  return out;
}

logs::LogTable table_of(const std::vector<logs::LogRecord>& records) {
  logs::LogTable out;
  out.reserve(records.size());
  for (const auto& record : records) out.append(record);
  return out;
}

}  // namespace

logs::LogTable shift_time(const logs::TableView& view, double delta_seconds) {
  auto records = records_of(view);
  for (auto& record : records) record.timestamp += delta_seconds;
  return table_of(records);
}

logs::LogTable scale_time(const logs::TableView& view, double factor) {
  if (factor <= 0.0) throw std::invalid_argument("scale_time: factor <= 0");
  auto records = records_of(view);
  for (auto& record : records) record.timestamp *= factor;
  return table_of(records);
}

logs::LogTable merge_datasets(const logs::TableView& a,
                              const logs::TableView& b) {
  auto records = records_of(a);
  auto tail = records_of(b);
  records.insert(records.end(), std::make_move_iterator(tail.begin()),
                 std::make_move_iterator(tail.end()));
  auto merged = table_of(records);
  merged.sort_by_time();
  return merged;
}

logs::LogTable rename_disjoint(const logs::TableView& view,
                               const std::string& tag) {
  auto records = records_of(view);
  for (auto& record : records) {
    record.client_id += tag;
    record.url = insert_infix(record.url, tag + ".");
    record.domain = tag + "." + record.domain;
  }
  return table_of(records);
}

logs::LogTable inject_benign_noise(const logs::TableView& view,
                                   std::size_t count, std::uint64_t seed) {
  auto records = records_of(view);
  double t_min = 0.0;
  double t_max = 0.0;
  if (!records.empty()) {
    const auto [lo, hi] = std::minmax_element(
        records.begin(), records.end(),
        [](const logs::LogRecord& a, const logs::LogRecord& b) {
          return a.timestamp < b.timestamp;
        });
    t_min = lo->timestamp;
    t_max = hi->timestamp;
  }
  stats::Rng rng(stats::fnv1a64_mix(seed ^ 0x6e6f697365ULL));
  records.reserve(records.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    logs::LogRecord noise;
    noise.timestamp = t_min + rng.uniform() * std::max(t_max - t_min, 1.0);
    noise.client_id = "noise-client-" + std::to_string(i);
    noise.user_agent = "NoiseAgent/1.0";
    noise.url = "https://noise-" + std::to_string(i) +
                ".example/burst/" + std::to_string(i);
    noise.domain = "noise-" + std::to_string(i) + ".example";
    noise.content_type = "application/json";
    noise.status = 200;
    noise.response_bytes = 64;
    noise.cache_status = logs::CacheStatus::kMiss;
    records.push_back(std::move(noise));
  }
  auto out = table_of(records);
  out.sort_by_time();
  return out;
}

logs::LogTable rename_urls_order_preserving(const logs::TableView& view,
                                            const std::string& infix) {
  auto records = records_of(view);
  for (auto& record : records) {
    record.url = insert_infix(record.url, infix);
    record.domain = infix + record.domain;
  }
  return table_of(records);
}

DetectionLabels detection_labels(const core::PeriodicityReport& report,
                                 const std::string& url_strip_infix) {
  DetectionLabels labels;
  for (const auto& object : report.objects) {
    std::string url = object.url;
    if (!url_strip_infix.empty()) {
      const auto pos = url.find(url_strip_infix);
      if (pos != std::string::npos) url.erase(pos, url_strip_infix.size());
    }
    for (const auto& rec : object.clients) {
      labels[{url, rec.client}] = {rec.periodic, rec.period_seconds};
    }
  }
  return labels;
}

DetectionLabels scale_periods(const DetectionLabels& labels, double factor) {
  if (factor <= 0.0)
    throw std::invalid_argument("scale_periods: factor <= 0");
  DetectionLabels out;
  for (const auto& [key, value] : labels)
    out.emplace(key, std::make_pair(value.first, value.second * factor));
  return out;
}

DetectionLabels restrict_labels(const DetectionLabels& labels,
                                const DetectionLabels& reference) {
  DetectionLabels out;
  for (const auto& [key, value] : labels) {
    if (reference.contains(key)) out.emplace(key, value);
  }
  return out;
}

bool labels_equivalent(const DetectionLabels& a, const DetectionLabels& b,
                       double period_rel_tol) {
  if (a.size() != b.size()) return false;
  auto it = a.begin();
  for (const auto& [key, vb] : b) {
    const auto& [ka, va] = *it++;
    if (ka != key || va.first != vb.first) return false;
    const double ref = std::max(std::abs(va.second), std::abs(vb.second));
    if (std::abs(va.second - vb.second) > period_rel_tol * ref) return false;
  }
  return true;
}

}  // namespace jsoncdn::oracle
