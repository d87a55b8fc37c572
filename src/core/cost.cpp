#include "core/cost.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>

namespace jsoncdn::core {

double ClassCost::cost_per_kilobyte() const noexcept {
  const double kb = static_cast<double>(bytes) / 1024.0;
  return kb <= 0.0 ? 0.0 : total_cost() / kb;
}

double ClassCost::cpu_share() const noexcept {
  const double total = total_cost();
  return total <= 0.0 ? 0.0 : cpu_cost / total;
}

const ClassCost* CostReport::find(http::ContentClass content) const {
  for (const auto& c : by_class) {
    if (c.content == content) return &c;
  }
  return nullptr;
}

CostReport analyze_costs(const logs::TableView& view, const CostModel& model) {
  if (model.cpu_per_request < 0.0 || model.cpu_per_kilobyte < 0.0 ||
      model.network_per_kilobyte < 0.0 || model.origin_per_request < 0.0)
    throw std::invalid_argument("analyze_costs: negative cost component");

  std::map<http::ContentClass, ClassCost> by_class;
  const auto& table = view.table();
  for (std::size_t k = 0; k < view.size(); ++k) {
    const auto row = view[k];
    const auto content = http::classify_content(table.content_type(row));
    auto& acc = by_class[content];
    acc.content = content;
    ++acc.requests;
    acc.bytes += table.response_bytes(row);
    const double kb = static_cast<double>(table.response_bytes(row)) / 1024.0;
    acc.cpu_cost += model.cpu_per_request + model.cpu_per_kilobyte * kb;
    acc.network_cost += model.network_per_kilobyte * kb;
    // Overload rejections are answered at the edge without an origin trip.
    const auto cache = table.cache_status(row);
    if (cache != logs::CacheStatus::kHit &&
        cache != logs::CacheStatus::kShed &&
        cache != logs::CacheStatus::kThrottled) {
      acc.origin_cost += model.origin_per_request;
    }
  }

  CostReport report;
  report.by_class.reserve(by_class.size());
  for (auto& [content, cost] : by_class) {
    report.total_cost += cost.total_cost();
    report.by_class.push_back(std::move(cost));
  }
  std::sort(report.by_class.begin(), report.by_class.end(),
            [](const ClassCost& a, const ClassCost& b) {
              return a.total_cost() > b.total_cost();
            });
  return report;
}

std::string render_costs(const CostReport& report) {
  std::ostringstream out;
  out << "Serving-cost breakdown by content class (abstract units)\n";
  out << "  " << std::left << std::setw(12) << "class" << std::right
      << std::setw(10) << "requests" << std::setw(14) << "megabytes"
      << std::setw(12) << "cost" << std::setw(12) << "cost/KB"
      << std::setw(11) << "cpu-share" << '\n';
  for (const auto& c : report.by_class) {
    out << "  " << std::left << std::setw(12)
        << std::string(http::to_string(c.content)) << std::right
        << std::setw(10) << c.requests << std::setw(14) << std::fixed
        << std::setprecision(1)
        << static_cast<double>(c.bytes) / (1024.0 * 1024.0) << std::setw(12)
        << std::setprecision(0) << c.total_cost() << std::setw(12)
        << std::setprecision(3) << c.cost_per_kilobyte() << std::setw(10)
        << std::setprecision(1) << c.cpu_share() * 100.0 << "%\n";
  }
  out << "  total cost: " << std::setprecision(0) << report.total_cost
      << '\n';
  return out.str();
}

}  // namespace jsoncdn::core
