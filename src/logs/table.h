// Columnar, dictionary-encoded log storage — the one in-memory row
// representation every analysis consumes.
//
// A LogTable keeps each LogRecord field in its own contiguous column;
// the five string fields (url, client_id, user_agent, domain, content_type)
// are dictionary-encoded through per-column StringInterners, so a column
// holds one u32 symbol per row and each distinct string exists once. A sixth
// dictionary interns the paper's *client key* — the "client_id|user_agent"
// pair that defines a client (§5.1) — so the flow-grouping hot paths key on
// a precomputed u32 symbol instead of concatenating strings per record, and
// the packed (client_sym << 32 | url_sym) u64 identifies a client-object
// flow in one integer compare.
//
// Determinism contract: rows keep append order; symbols are assigned in
// first-seen order; sort_by_time() is a stable timestamp sort. Analyses
// take a TableView (a row selection), so the full and the JSON-only inputs
// share one implementation, and every report is bit-identical across
// thread counts and ingest paths (TSV, .jlog v2).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "http/method.h"
#include "logs/interner.h"
#include "logs/record.h"

namespace jsoncdn::shard {
class ChunkCodec;  // shard/chunk.h — fills columns directly
}  // namespace jsoncdn::shard

namespace jsoncdn::logs {

// Rows staged for LogTable::append_batch: append_fields' arguments, with
// every string copied into its field's byte buffer, so a batch owns its
// rows and the strings passed to push() need not outlive the call.
class RowBatch {
 public:
  void push(double timestamp, std::string_view client_id,
            std::string_view user_agent, http::Method method,
            std::string_view url, std::string_view domain,
            std::string_view content_type, int status,
            std::uint64_t response_bytes, std::uint64_t request_bytes,
            CacheStatus cache_status, std::uint32_t edge_id);

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }
  // Drops every row; keeps the capacity.
  void clear() noexcept;

 private:
  friend class LogTable;

  // The string fields, in push() order: client id, user agent, url,
  // domain, content type.
  static constexpr std::size_t kStrings = 5;

  struct Row {
    double timestamp;
    std::uint64_t response_bytes;
    std::uint64_t request_bytes;
    std::int32_t status;
    std::uint32_t edge_id;
    http::Method method;
    CacheStatus cache_status;
  };
  // One string field of every row: the bytes back to back and each row's
  // length, so interning a field reads only that field's bytes.
  struct StringColumn {
    std::string bytes;
    std::vector<std::uint32_t> lengths;
  };

  // String field `field` of every row, in row order.
  void field_views(std::size_t field,
                   std::vector<std::string_view>& out) const;

  std::vector<Row> rows_;
  std::array<StringColumn, kStrings> strings_;
};

class LogTable {
 public:
  using RowIndex = std::uint32_t;
  using Symbol = StringInterner::Symbol;

  LogTable() = default;
  LogTable(const LogTable&) = delete;
  LogTable& operator=(const LogTable&) = delete;
  LogTable(LogTable&&) = default;
  LogTable& operator=(LogTable&&) = default;

  [[nodiscard]] std::size_t size() const noexcept { return ts_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ts_.empty(); }
  void reserve(std::size_t rows);

  // Drops every row but keeps the dictionaries (and the client pairs,
  // whose symbols stay valid) and the columns' capacity. This is what makes
  // a LogTable reusable as a decode scratch: the shard reader loads the
  // file dictionaries once, then overwrites the row columns chunk by chunk
  // without reallocating or re-interning anything.
  void clear_rows() noexcept;

  // Appends one row from individual (still-escaped-free) field values; the
  // zero-copy ingest path calls this straight off string_views into the
  // mapped file. Returns the new row's index.
  RowIndex append_fields(double timestamp, std::string_view client_id,
                         std::string_view user_agent, http::Method method,
                         std::string_view url, std::string_view domain,
                         std::string_view content_type, int status,
                         std::uint64_t response_bytes,
                         std::uint64_t request_bytes, CacheStatus cache_status,
                         std::uint32_t edge_id);

  void append(const LogRecord& record);

  // Appends the batch's rows in order: the same rows and dictionaries as
  // one append_fields call per row, but each string column goes through
  // StringInterner::intern_batch, so every dictionary still sees its
  // strings in row order.
  void append_batch(const RowBatch& batch);

  // Another table's symbols mapped to this table's, filled in lazily by
  // append_row. Reuse one map for every row copied from the same source.
  struct SymbolMap {
    std::vector<Symbol> url, client_id, user_agent, domain, content_type,
        client;
  };

  // Appends row `row` of `src`: the same row and dictionaries append_fields
  // would give, but each distinct source string is interned here only once
  // (on its first row), not hashed again for every row.
  RowIndex append_row(const LogTable& src, RowIndex row, SymbolMap& map);

  // ---- Column access ------------------------------------------------------
  [[nodiscard]] std::span<const double> timestamps() const noexcept {
    return ts_;
  }
  [[nodiscard]] double timestamp(RowIndex i) const noexcept { return ts_[i]; }
  [[nodiscard]] http::Method method(RowIndex i) const noexcept {
    return method_[i];
  }
  [[nodiscard]] int status(RowIndex i) const noexcept { return status_[i]; }
  [[nodiscard]] std::uint64_t response_bytes(RowIndex i) const noexcept {
    return resp_bytes_[i];
  }
  [[nodiscard]] std::uint64_t request_bytes(RowIndex i) const noexcept {
    return req_bytes_[i];
  }
  [[nodiscard]] CacheStatus cache_status(RowIndex i) const noexcept {
    return cache_[i];
  }
  [[nodiscard]] std::uint32_t edge_id(RowIndex i) const noexcept {
    return edge_[i];
  }

  [[nodiscard]] Symbol url_sym(RowIndex i) const noexcept { return url_[i]; }
  [[nodiscard]] Symbol client_id_sym(RowIndex i) const noexcept {
    return client_id_[i];
  }
  [[nodiscard]] Symbol user_agent_sym(RowIndex i) const noexcept {
    return ua_[i];
  }
  [[nodiscard]] Symbol domain_sym(RowIndex i) const noexcept {
    return domain_[i];
  }
  [[nodiscard]] Symbol content_type_sym(RowIndex i) const noexcept {
    return ctype_[i];
  }
  // Symbol of the interned "client_id|user_agent" pair.
  [[nodiscard]] Symbol client_sym(RowIndex i) const noexcept {
    return client_[i];
  }

  // Client-object flow identity as one integer (§5.1's client-object flow).
  [[nodiscard]] std::uint64_t flow_key(RowIndex i) const noexcept {
    return (static_cast<std::uint64_t>(client_[i]) << 32) |
           static_cast<std::uint64_t>(url_[i]);
  }

  [[nodiscard]] std::string_view url(RowIndex i) const noexcept {
    return url_dict_.view(url_[i]);
  }
  [[nodiscard]] std::string_view client_id(RowIndex i) const noexcept {
    return client_id_dict_.view(client_id_[i]);
  }
  [[nodiscard]] std::string_view user_agent(RowIndex i) const noexcept {
    return ua_dict_.view(ua_[i]);
  }
  [[nodiscard]] std::string_view domain(RowIndex i) const noexcept {
    return domain_dict_.view(domain_[i]);
  }
  [[nodiscard]] std::string_view content_type(RowIndex i) const noexcept {
    return ctype_dict_.view(ctype_[i]);
  }
  // The "client_id|user_agent" string LogRecord::client_key() would build —
  // already materialized in the client dictionary, so reading it is free.
  [[nodiscard]] std::string_view client_key(RowIndex i) const noexcept {
    return client_dict_.view(client_[i]);
  }

  [[nodiscard]] const StringInterner& urls() const noexcept {
    return url_dict_;
  }
  [[nodiscard]] const StringInterner& client_ids() const noexcept {
    return client_id_dict_;
  }
  [[nodiscard]] const StringInterner& user_agents() const noexcept {
    return ua_dict_;
  }
  [[nodiscard]] const StringInterner& domains() const noexcept {
    return domain_dict_;
  }
  [[nodiscard]] const StringInterner& content_types() const noexcept {
    return ctype_dict_;
  }
  [[nodiscard]] const StringInterner& client_keys() const noexcept {
    return client_dict_;
  }

  // ---- Raw column spans (vectorized kernel inputs) ------------------------
  // The stats/kernels layer walks whole columns (optionally gathered through
  // a TableView's row indices) instead of calling the per-row accessors.
  [[nodiscard]] std::span<const http::Method> methods() const noexcept {
    return method_;
  }
  [[nodiscard]] std::span<const CacheStatus> cache_statuses() const noexcept {
    return cache_;
  }
  [[nodiscard]] std::span<const std::int32_t> statuses() const noexcept {
    return status_;
  }
  [[nodiscard]] std::span<const Symbol> url_syms() const noexcept {
    return url_;
  }
  [[nodiscard]] std::span<const Symbol> user_agent_syms() const noexcept {
    return ua_;
  }

  // ---- Row proxy ----------------------------------------------------------
  // A borrowed view of one row with LogRecord-shaped accessors, so call
  // sites migrate incrementally without materializing strings.
  class Row {
   public:
    Row(const LogTable& table, RowIndex index) noexcept
        : table_(&table), index_(index) {}

    [[nodiscard]] RowIndex index() const noexcept { return index_; }
    [[nodiscard]] double timestamp() const noexcept {
      return table_->timestamp(index_);
    }
    [[nodiscard]] std::string_view client_id() const noexcept {
      return table_->client_id(index_);
    }
    [[nodiscard]] std::string_view user_agent() const noexcept {
      return table_->user_agent(index_);
    }
    [[nodiscard]] http::Method method() const noexcept {
      return table_->method(index_);
    }
    [[nodiscard]] std::string_view url() const noexcept {
      return table_->url(index_);
    }
    [[nodiscard]] std::string_view domain() const noexcept {
      return table_->domain(index_);
    }
    [[nodiscard]] std::string_view content_type() const noexcept {
      return table_->content_type(index_);
    }
    [[nodiscard]] int status() const noexcept {
      return table_->status(index_);
    }
    [[nodiscard]] std::uint64_t response_bytes() const noexcept {
      return table_->response_bytes(index_);
    }
    [[nodiscard]] std::uint64_t request_bytes() const noexcept {
      return table_->request_bytes(index_);
    }
    [[nodiscard]] CacheStatus cache_status() const noexcept {
      return table_->cache_status(index_);
    }
    [[nodiscard]] std::uint32_t edge_id() const noexcept {
      return table_->edge_id(index_);
    }
    [[nodiscard]] std::string_view object_key() const noexcept {
      return table_->url(index_);
    }
    // Zero-allocation counterpart of LogRecord::client_key().
    [[nodiscard]] std::string_view client_key() const noexcept {
      return table_->client_key(index_);
    }
    // Materializes a legacy LogRecord (copies the strings).
    [[nodiscard]] LogRecord materialize() const;

   private:
    const LogTable* table_;
    RowIndex index_;
  };

  [[nodiscard]] Row row(RowIndex i) const noexcept { return Row(*this, i); }
  [[nodiscard]] LogRecord record(RowIndex i) const {
    return row(i).materialize();
  }

  // ---- Maintenance --------------------------------------------------------
  // Stable ascending-time sort of all columns. Dictionaries keep their
  // first-seen (pre-sort) symbol order.
  void sort_by_time();

  // Row indices whose response content-type is application/json (the
  // paper's JSON filter). Content classification runs once per distinct
  // content-type symbol, not per row.
  [[nodiscard]] std::vector<RowIndex> json_rows() const;

  // A new table holding `rows` in span order; its dictionaries intern only
  // the strings those rows use, in first-seen order.
  [[nodiscard]] LogTable select(std::span<const RowIndex> rows) const;

  // [min, max] timestamp; {0, 0} when empty.
  [[nodiscard]] std::pair<double, double> time_range() const;

  // Exact distinct counts — free: every dictionary entry is referenced by
  // at least one row.
  [[nodiscard]] std::size_t distinct_domains() const noexcept {
    return domain_dict_.size();
  }
  [[nodiscard]] std::size_t distinct_objects() const noexcept {
    return url_dict_.size();
  }
  [[nodiscard]] std::size_t distinct_clients() const noexcept {
    return client_dict_.size();
  }

  // Approximate heap footprint (columns + dictionaries).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  std::vector<double> ts_;
  std::vector<http::Method> method_;
  std::vector<std::int32_t> status_;
  std::vector<std::uint64_t> resp_bytes_;
  std::vector<std::uint64_t> req_bytes_;
  std::vector<CacheStatus> cache_;
  std::vector<std::uint32_t> edge_;

  std::vector<Symbol> url_;
  std::vector<Symbol> client_id_;
  std::vector<Symbol> ua_;
  std::vector<Symbol> domain_;
  std::vector<Symbol> ctype_;
  std::vector<Symbol> client_;

  StringInterner url_dict_;
  StringInterner client_id_dict_;
  StringInterner ua_dict_;
  StringInterner domain_dict_;
  StringInterner ctype_dict_;
  StringInterner client_dict_;

  // The client-key symbol of a row whose client id and user agent are
  // interned as `cid` and `uas`.
  Symbol client_symbol(Symbol cid, Symbol uas);

  // Indexed by client-id symbol: the user agent last seen with that client
  // id and the pair's client-key symbol. A row repeating the pair skips
  // rebuilding the "id|ua" string; any other user agent interns it.
  struct ClientPair {
    Symbol user_agent = StringInterner::kNoSymbol;
    Symbol client = StringInterner::kNoSymbol;
  };
  std::vector<ClientPair> client_pairs_;
  std::string key_scratch_;  // reused buffer for new pairs

  friend class jsoncdn::shard::ChunkCodec;  // the .jlog v2 chunk codec
};

// Non-owning selection of rows of one LogTable, in selection order. The
// common cases are "all rows" and "the JSON-only rows"; analyses take a
// TableView so the filtered and unfiltered paths share one implementation.
// The view does not own the row-index storage — keep the vector alive.
class TableView {
 public:
  // All rows, in table order.
  explicit TableView(const LogTable& table) noexcept
      : table_(&table), all_(true) {}
  // The given rows, in span order.
  TableView(const LogTable& table,
            std::span<const LogTable::RowIndex> rows) noexcept
      : table_(&table), rows_(rows), all_(false) {}

  [[nodiscard]] const LogTable& table() const noexcept { return *table_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return all_ ? table_->size() : rows_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  // Table row index of the k-th selected row.
  [[nodiscard]] LogTable::RowIndex operator[](std::size_t k) const noexcept {
    return all_ ? static_cast<LogTable::RowIndex>(k) : rows_[k];
  }
  // Row-index gather array for kernel calls: nullptr when the view selects
  // every table row in order (kernels then walk columns directly, offset by
  // the shard's begin).
  [[nodiscard]] const LogTable::RowIndex* row_indices() const noexcept {
    return all_ ? nullptr : rows_.data();
  }

 private:
  const LogTable* table_;
  std::span<const LogTable::RowIndex> rows_;
  bool all_;
};

// ---- Flow groupings (§5.1) ---------------------------------------------
//
// The paper defines: an *object flow* is the sequence of requests made by all
// clients to a specific object (unique URL); a *client-object flow* is the
// subsequence from one client, where a client is the (user-agent, anonymized
// IP) pair. The periodicity study filters out short client-object flows and
// object flows with few clients (FlowFilter).
//
// Record indices in the flows below are positions *within the view*
// (0..view.size()-1); map them back to table rows with view[idx].

// One client's request subsequence for one object.
struct ClientObjectFlow {
  std::string client;               // client key of the requester
  std::vector<double> times;        // ascending request timestamps
  std::vector<std::size_t> record_indices;  // view positions
};

// All requests for one object, with per-client subflows.
struct ObjectFlow {
  std::string url;
  std::vector<double> times;        // ascending, all clients merged
  std::vector<ClientObjectFlow> clients;
  std::size_t total_requests = 0;
  // Fraction of this object's requests that are uncacheable / uploads —
  // used by §5.1's "periodic traffic is 56.2% uncacheable, 78% upload".
  double uncacheable_share = 0.0;
  double upload_share = 0.0;
};

// The paper's §5.1 filter: client-object flows with >= 10 requests, object
// flows with >= 10 clients. The batch pipeline and the streaming triage both
// read it.
struct FlowFilter {
  static constexpr std::size_t min_client_flow_requests = 10;
  static constexpr std::size_t min_object_clients = 10;
};

// Groups the view's rows into object flows, applying FlowFilter: rows are
// bucketed by url symbol (objects) and client symbol (client-object
// subflows) instead of hashing strings per record. Flows are sorted by url
// and client subflows by client key. Client subflows below the request
// threshold are dropped from `clients` but still counted in
// `times`/`total_requests` (they are real traffic; they are just too short
// to test for periodicity).
[[nodiscard]] std::vector<ObjectFlow> extract_object_flows(
    const TableView& view);

// Per-client full request sequence (across all objects), used by the ngram
// predictor: each element is (client key, view positions in time order).
struct ClientFlow {
  std::string client;
  std::vector<std::size_t> record_indices;
};

// Client flows with at least `min_requests` rows, sorted by client key.
[[nodiscard]] std::vector<ClientFlow> extract_client_flows(
    const TableView& view, std::size_t min_requests = 2);

}  // namespace jsoncdn::logs
