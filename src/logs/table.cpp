#include "logs/table.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "http/mime.h"
#include "stats/kernels.h"

namespace jsoncdn::logs {

namespace {

// This table's symbol for symbol `sym` of `from`, interning the string into
// `into` the first time the symbol is seen.
LogTable::Symbol map_symbol(std::vector<LogTable::Symbol>& map,
                            LogTable::Symbol sym, const StringInterner& from,
                            StringInterner& into) {
  if (map.size() < from.size()) {
    map.resize(from.size(), StringInterner::kNoSymbol);
  }
  auto& mapped = map[sym];
  if (mapped == StringInterner::kNoSymbol) mapped = into.intern(from.view(sym));
  return mapped;
}

// Applies a row permutation to one column: out[k] = col[perm[k]].
template <typename T>
void gather(std::vector<T>& col, const std::vector<std::uint32_t>& perm) {
  std::vector<T> out(col.size());
  for (std::size_t k = 0; k < perm.size(); ++k) out[k] = col[perm[k]];
  col = std::move(out);
}

// How far ahead append_batch prefetches a row's client pair.
constexpr std::size_t kPrefetchAhead = 8;

// Byte length of a staged string; the dictionaries store u32 lengths.
std::uint32_t staged_length(std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("RowBatch: string longer than 4 GiB");
  }
  return static_cast<std::uint32_t>(s.size());
}

}  // namespace

void RowBatch::push(double timestamp, std::string_view client_id,
                    std::string_view user_agent, http::Method method,
                    std::string_view url, std::string_view domain,
                    std::string_view content_type, int status,
                    std::uint64_t response_bytes, std::uint64_t request_bytes,
                    CacheStatus cache_status, std::uint32_t edge_id) {
  const std::string_view strings[kStrings] = {client_id, user_agent, url,
                                              domain, content_type};
  std::uint32_t lengths[kStrings];
  for (std::size_t f = 0; f < kStrings; ++f) {
    lengths[f] = staged_length(strings[f]);
  }
  for (std::size_t f = 0; f < kStrings; ++f) {
    strings_[f].bytes.append(strings[f]);
    strings_[f].lengths.push_back(lengths[f]);
  }
  rows_.push_back(Row{timestamp, response_bytes, request_bytes, status,
                      edge_id, method, cache_status});
}

void RowBatch::clear() noexcept {
  rows_.clear();
  for (auto& column : strings_) {
    column.bytes.clear();
    column.lengths.clear();
  }
}

void RowBatch::field_views(std::size_t field,
                           std::vector<std::string_view>& out) const {
  const auto& column = strings_[field];
  out.resize(column.lengths.size());
  const char* at = column.bytes.data();
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = std::string_view(at, column.lengths[k]);
    at += column.lengths[k];
  }
}

void LogTable::reserve(std::size_t rows) {
  ts_.reserve(rows);
  method_.reserve(rows);
  status_.reserve(rows);
  resp_bytes_.reserve(rows);
  req_bytes_.reserve(rows);
  cache_.reserve(rows);
  edge_.reserve(rows);
  url_.reserve(rows);
  client_id_.reserve(rows);
  ua_.reserve(rows);
  domain_.reserve(rows);
  ctype_.reserve(rows);
  client_.reserve(rows);
}

void LogTable::clear_rows() noexcept {
  ts_.clear();
  method_.clear();
  status_.clear();
  resp_bytes_.clear();
  req_bytes_.clear();
  cache_.clear();
  edge_.clear();
  url_.clear();
  client_id_.clear();
  ua_.clear();
  domain_.clear();
  ctype_.clear();
  client_.clear();
}

LogTable::RowIndex LogTable::append_fields(
    double timestamp, std::string_view client_id, std::string_view user_agent,
    http::Method method, std::string_view url, std::string_view domain,
    std::string_view content_type, int status, std::uint64_t response_bytes,
    std::uint64_t request_bytes, CacheStatus cache_status,
    std::uint32_t edge_id) {
  const auto index = static_cast<RowIndex>(ts_.size());
  ts_.push_back(timestamp);
  method_.push_back(method);
  status_.push_back(status);
  resp_bytes_.push_back(response_bytes);
  req_bytes_.push_back(request_bytes);
  cache_.push_back(cache_status);
  edge_.push_back(edge_id);

  const Symbol cid = client_id_dict_.intern(client_id);
  const Symbol uas = ua_dict_.intern(user_agent);
  url_.push_back(url_dict_.intern(url));
  client_id_.push_back(cid);
  ua_.push_back(uas);
  domain_.push_back(domain_dict_.intern(domain));
  ctype_.push_back(ctype_dict_.intern(content_type));
  client_.push_back(client_symbol(cid, uas));
  return index;
}

LogTable::Symbol LogTable::client_symbol(Symbol cid, Symbol uas) {
  if (cid >= client_pairs_.size()) client_pairs_.resize(client_id_dict_.size());
  ClientPair& pair = client_pairs_[cid];
  if (pair.user_agent != uas) {
    key_scratch_.assign(client_id_dict_.view(cid));
    key_scratch_.push_back('|');
    key_scratch_.append(ua_dict_.view(uas));
    pair = ClientPair{uas, client_dict_.intern(key_scratch_)};
  }
  return pair.client;
}

void LogTable::append_batch(const RowBatch& batch) {
  const std::size_t first = size();
  const std::size_t n = batch.size();
  for (const auto& row : batch.rows_) {
    ts_.push_back(row.timestamp);
    method_.push_back(row.method);
    status_.push_back(row.status);
    resp_bytes_.push_back(row.response_bytes);
    req_bytes_.push_back(row.request_bytes);
    cache_.push_back(row.cache_status);
    edge_.push_back(row.edge_id);
  }

  // One dictionary at a time, in RowBatch's field order.
  const std::pair<std::vector<Symbol>*, StringInterner*> columns[] = {
      {&client_id_, &client_id_dict_}, {&ua_, &ua_dict_},
      {&url_, &url_dict_},             {&domain_, &domain_dict_},
      {&ctype_, &ctype_dict_},
  };
  std::vector<std::string_view> strings;
  for (std::size_t f = 0; f < RowBatch::kStrings; ++f) {
    auto& [column, dict] = columns[f];
    batch.field_views(f, strings);
    column->resize(first + n);
    dict->intern_batch(strings, column->data() + first);
  }

  client_pairs_.resize(std::max(client_pairs_.size(), client_id_dict_.size()));
  client_.resize(first + n);
  for (std::size_t k = first; k < first + n; ++k) {
    if (k + kPrefetchAhead < first + n) {
      __builtin_prefetch(&client_pairs_[client_id_[k + kPrefetchAhead]]);
    }
    client_[k] = client_symbol(client_id_[k], ua_[k]);
  }
}

void LogTable::append(const LogRecord& record) {
  append_fields(record.timestamp, record.client_id, record.user_agent,
                record.method, record.url, record.domain, record.content_type,
                record.status, record.response_bytes, record.request_bytes,
                record.cache_status, record.edge_id);
}

LogTable::RowIndex LogTable::append_row(const LogTable& src, RowIndex row,
                                        SymbolMap& map) {
  const auto index = static_cast<RowIndex>(ts_.size());
  ts_.push_back(src.ts_[row]);
  method_.push_back(src.method_[row]);
  status_.push_back(src.status_[row]);
  resp_bytes_.push_back(src.resp_bytes_[row]);
  req_bytes_.push_back(src.req_bytes_[row]);
  cache_.push_back(src.cache_[row]);
  edge_.push_back(src.edge_[row]);
  client_id_.push_back(map_symbol(map.client_id, src.client_id_[row],
                                  src.client_id_dict_, client_id_dict_));
  ua_.push_back(
      map_symbol(map.user_agent, src.ua_[row], src.ua_dict_, ua_dict_));
  url_.push_back(map_symbol(map.url, src.url_[row], src.url_dict_, url_dict_));
  domain_.push_back(map_symbol(map.domain, src.domain_[row], src.domain_dict_,
                               domain_dict_));
  ctype_.push_back(map_symbol(map.content_type, src.ctype_[row],
                              src.ctype_dict_, ctype_dict_));
  client_.push_back(map_symbol(map.client, src.client_[row], src.client_dict_,
                               client_dict_));
  return index;
}

LogRecord LogTable::Row::materialize() const {
  LogRecord r;
  r.timestamp = timestamp();
  r.client_id = std::string(client_id());
  r.user_agent = std::string(user_agent());
  r.method = method();
  r.url = std::string(url());
  r.domain = std::string(domain());
  r.content_type = std::string(content_type());
  r.status = status();
  r.response_bytes = response_bytes();
  r.request_bytes = request_bytes();
  r.cache_status = cache_status();
  r.edge_id = edge_id();
  return r;
}

void LogTable::sort_by_time() {
  std::vector<std::uint32_t> perm(size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return ts_[a] < ts_[b];
                   });
  gather(ts_, perm);
  gather(method_, perm);
  gather(status_, perm);
  gather(resp_bytes_, perm);
  gather(req_bytes_, perm);
  gather(cache_, perm);
  gather(edge_, perm);
  gather(url_, perm);
  gather(client_id_, perm);
  gather(ua_, perm);
  gather(domain_, perm);
  gather(ctype_, perm);
  gather(client_, perm);
}

std::vector<LogTable::RowIndex> LogTable::json_rows() const {
  std::vector<char> sym_is_json(ctype_dict_.size(), 0);
  for (std::size_t s = 0; s < ctype_dict_.size(); ++s) {
    sym_is_json[s] =
        http::is_json(ctype_dict_.view(static_cast<Symbol>(s))) ? 1 : 0;
  }
  std::vector<RowIndex> out;
  for (std::size_t i = 0; i < ctype_.size(); ++i) {
    if (sym_is_json[ctype_[i]]) out.push_back(static_cast<RowIndex>(i));
  }
  return out;
}

LogTable LogTable::select(std::span<const RowIndex> rows) const {
  LogTable out;
  out.reserve(rows.size());
  SymbolMap map;
  for (const auto i : rows) out.append_row(*this, i, map);
  return out;
}

std::pair<double, double> LogTable::time_range() const {
  if (ts_.empty()) return {0.0, 0.0};
  double lo = ts_.front();
  double hi = lo;
  for (double t : ts_) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  return {lo, hi};
}

std::size_t LogTable::memory_bytes() const noexcept {
  std::size_t bytes = 0;
  bytes += ts_.capacity() * sizeof(double);
  bytes += method_.capacity() * sizeof(http::Method);
  bytes += status_.capacity() * sizeof(std::int32_t);
  bytes += resp_bytes_.capacity() * sizeof(std::uint64_t);
  bytes += req_bytes_.capacity() * sizeof(std::uint64_t);
  bytes += cache_.capacity() * sizeof(CacheStatus);
  bytes += edge_.capacity() * sizeof(std::uint32_t);
  bytes += (url_.capacity() + client_id_.capacity() + ua_.capacity() +
            domain_.capacity() + ctype_.capacity() + client_.capacity()) *
           sizeof(Symbol);
  bytes += url_dict_.memory_bytes() + client_id_dict_.memory_bytes() +
           ua_dict_.memory_bytes() + domain_dict_.memory_bytes() +
           ctype_dict_.memory_bytes() + client_dict_.memory_bytes();
  bytes += client_pairs_.capacity() * sizeof(ClientPair);
  return bytes;
}

// Flow indices are positions *within the view* (0..view.size()-1);
// consumers map back to table rows with view[idx].
std::vector<ObjectFlow> extract_object_flows(const TableView& view) {
  const LogTable& table = view.table();
  const std::size_t n = view.size();

  // Bucket view positions by url symbol with a counting sort: one histogram
  // pass (the group-by counting kernel), a prefix sum into per-symbol
  // offsets, and a stable scatter into a single flat array — no
  // vector-of-vectors growth. Per-symbol position order is ascending k,
  // exactly what per-bucket push_back produced.
  const std::size_t n_urls = table.urls().size();
  const std::uint32_t* row_idx = view.row_indices();
  std::vector<std::uint64_t> counts(n_urls, 0);
  stats::kernels::count_u32(table.url_syms().data(), row_idx, n,
                            counts.data(), n_urls);
  std::vector<std::uint32_t> offsets(n_urls + 1, 0);
  for (std::size_t s = 0; s < n_urls; ++s) {
    offsets[s + 1] = offsets[s] + static_cast<std::uint32_t>(counts[s]);
  }
  std::vector<std::uint32_t> bucketed(n);
  {
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t k = 0; k < n; ++k) {
      bucketed[cursor[table.url_sym(view[k])]++] =
          static_cast<std::uint32_t>(k);
    }
  }

  std::vector<ObjectFlow> out;
  std::unordered_map<std::uint64_t, ClientObjectFlow> by_client;
  for (std::size_t sym = 0; sym < n_urls; ++sym) {
    const std::span<std::uint32_t> indices(bucketed.data() + offsets[sym],
                                           offsets[sym + 1] - offsets[sym]);
    if (indices.empty()) continue;  // url not present in this view

    // Defensive time sort (the rows of a time-sorted table are already in
    // order). std::sort is not stable, but the comparator and the input
    // sequence are fixed, so equal-timestamp ties always break the same way.
    std::sort(indices.begin(), indices.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return table.timestamp(view[a]) < table.timestamp(view[b]);
              });

    by_client.clear();
    ObjectFlow flow;
    flow.url = std::string(table.urls().view(
        static_cast<LogTable::Symbol>(sym)));
    flow.total_requests = indices.size();
    flow.times.reserve(indices.size());
    std::size_t uncacheable = 0;
    std::size_t uploads = 0;
    for (std::uint32_t k : indices) {
      const LogTable::RowIndex row = view[k];
      const double t = table.timestamp(row);
      flow.times.push_back(t);
      if (table.cache_status(row) == CacheStatus::kNotCacheable) ++uncacheable;
      if (http::is_upload(table.method(row))) ++uploads;
      auto& cof = by_client[table.client_sym(row)];
      if (cof.client.empty()) cof.client = std::string(table.client_key(row));
      cof.times.push_back(t);
      cof.record_indices.push_back(k);
    }
    flow.uncacheable_share =
        static_cast<double>(uncacheable) / static_cast<double>(indices.size());
    flow.upload_share =
        static_cast<double>(uploads) / static_cast<double>(indices.size());

    if (by_client.size() < FlowFilter::min_object_clients) continue;

    flow.clients.reserve(by_client.size());
    for (auto& [client_sym, cof] : by_client) {
      if (cof.times.size() >= FlowFilter::min_client_flow_requests) {
        flow.clients.push_back(std::move(cof));
      }
    }
    std::sort(flow.clients.begin(), flow.clients.end(),
              [](const ClientObjectFlow& a, const ClientObjectFlow& b) {
                return a.client < b.client;
              });
    out.push_back(std::move(flow));
  }
  std::sort(out.begin(), out.end(),
            [](const ObjectFlow& a, const ObjectFlow& b) {
              return a.url < b.url;
            });
  return out;
}

std::vector<ClientFlow> extract_client_flows(const TableView& view,
                                             std::size_t min_requests) {
  const LogTable& table = view.table();
  const std::size_t n = view.size();

  std::vector<std::vector<std::size_t>> by_client(table.client_keys().size());
  for (std::size_t k = 0; k < n; ++k) {
    by_client[table.client_sym(view[k])].push_back(k);
  }

  std::vector<ClientFlow> out;
  for (std::size_t sym = 0; sym < by_client.size(); ++sym) {
    auto& indices = by_client[sym];
    if (indices.size() < min_requests) continue;
    std::sort(indices.begin(), indices.end(),
              [&](std::size_t a, std::size_t b) {
                return table.timestamp(view[a]) < table.timestamp(view[b]);
              });
    ClientFlow flow;
    flow.client = std::string(
        table.client_keys().view(static_cast<LogTable::Symbol>(sym)));
    flow.record_indices = std::move(indices);
    out.push_back(std::move(flow));
  }
  std::sort(out.begin(), out.end(),
            [](const ClientFlow& a, const ClientFlow& b) {
              return a.client < b.client;
            });
  return out;
}

}  // namespace jsoncdn::logs
