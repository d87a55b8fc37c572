#include "shard/chunk.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "shard/varint.h"

namespace jsoncdn::shard {

namespace {

constexpr std::size_t kMethodCount = 7;  // http::Method enumerator count

// Zone-map accumulators. A zero-row chunk leaves everything at the
// documented {0, 0} defaults.
struct ZoneMap {
  double min_ts = 0.0;
  double max_ts = 0.0;
  std::array<SymbolRange, kSymbolColumns> symbols{};

  void observe_ts(double t, bool first) noexcept {
    if (first || t < min_ts) min_ts = t;
    if (first || t > max_ts) max_ts = t;
  }
  void observe_sym(std::size_t col, std::uint32_t sym, bool first) noexcept {
    auto& r = symbols[col];
    if (first || sym < r.min_sym) r.min_sym = sym;
    if (first || sym > r.max_sym) r.max_sym = sym;
  }
  // Bit-pattern compare: encode and decode run the identical fold over the
  // identical values, so even NaN timestamps agree bit-for-bit.
  [[nodiscard]] bool matches(const ChunkMeta& meta) const noexcept {
    if (std::bit_cast<std::uint64_t>(min_ts) !=
            std::bit_cast<std::uint64_t>(meta.min_ts) ||
        std::bit_cast<std::uint64_t>(max_ts) !=
            std::bit_cast<std::uint64_t>(meta.max_ts)) {
      return false;
    }
    for (std::size_t c = 0; c < kSymbolColumns; ++c) {
      if (symbols[c].min_sym != meta.symbols[c].min_sym ||
          symbols[c].max_sym != meta.symbols[c].max_sym) {
        return false;
      }
    }
    return true;
  }
};

void encode_delta_u64(std::string& out, const std::uint64_t* values,
                      std::uint32_t begin, std::uint32_t end) {
  DeltaEncoder enc;
  for (std::uint32_t i = begin; i < end; ++i) enc.put(out, values[i]);
}

// Decodes `n` zigzag-delta varints, appending to `col` through `convert`,
// which range-checks and narrows (or throws via jlog_corrupt). Varints are
// bulk-decoded into `scratch` (reused across columns) so the hot byte loop
// runs without per-value virtual position plumbing; the convert pass over
// the dense u64 array then auto-vectorizes for the trivial conversions.
template <typename T, typename Convert>
void decode_delta_column(std::string_view payload, std::size_t& pos,
                         std::uint32_t n, std::vector<T>& col,
                         std::vector<std::uint64_t>& scratch,
                         const std::string& path, Convert convert) {
  scratch.resize(n);
  DeltaDecoder dec;
  if (!dec.get_n(payload, pos, scratch.data(), n)) {
    jlog_corrupt(path, "truncated chunk column");
  }
  col.reserve(col.size() + n);
  for (std::uint32_t i = 0; i < n; ++i) col.push_back(convert(scratch[i]));
}

template <typename E>
void encode_enum3(std::string& out, const std::vector<E>& col,
                  std::uint32_t begin, std::uint32_t end) {
  std::vector<std::uint8_t> packed;
  packed.reserve(end - begin);
  for (std::uint32_t i = begin; i < end; ++i) {
    packed.push_back(static_cast<std::uint8_t>(col[i]));
  }
  pack3(out, packed.data(), packed.size());
}

template <typename E>
void decode_enum3(std::string_view payload, std::size_t& pos, std::uint32_t n,
                  std::vector<E>& col, std::size_t limit,
                  const std::string& path, const char* what) {
  std::vector<std::uint8_t> packed(n);
  if (!unpack3(payload, pos, packed.data(), n)) {
    jlog_corrupt(path, "truncated chunk enum column");
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (packed[i] >= limit) jlog_corrupt(path, what);
    col.push_back(static_cast<E>(packed[i]));
  }
}

// Dictionary block: count, lengths, bytes.
void write_dictionary(BinaryWriter& out, const logs::StringInterner& dict) {
  out.pod<std::uint32_t>(static_cast<std::uint32_t>(dict.size()));
  for (std::size_t s = 0; s < dict.size(); ++s) {
    out.pod<std::uint32_t>(static_cast<std::uint32_t>(
        dict.view(static_cast<logs::StringInterner::Symbol>(s)).size()));
  }
  for (std::size_t s = 0; s < dict.size(); ++s) {
    const auto v = dict.view(static_cast<logs::StringInterner::Symbol>(s));
    out.raw(v.data(), v.size());
  }
}

void read_dictionary(BinaryReader& in, logs::StringInterner& dict,
                     const std::string& path) {
  const auto count = in.pod<std::uint32_t>();
  const auto lengths = in.column<std::uint32_t>(count);
  std::vector<std::string_view> strings(count);
  for (std::uint32_t s = 0; s < count; ++s) strings[s] = in.bytes(lengths[s]);
  const auto before = dict.size();
  std::vector<logs::StringInterner::Symbol> symbols(count);
  dict.reserve(before + count);
  dict.intern_batch(strings, symbols.data());
  if (dict.size() != before + count) {
    jlog_corrupt(path, "duplicate dictionary entry");
  }
}

}  // namespace

void write_chunk_meta(BinaryWriter& out, const ChunkMeta& meta) {
  out.pod<std::uint64_t>(meta.offset);
  out.pod<std::uint64_t>(meta.payload_bytes);
  out.pod<std::uint64_t>(meta.checksum);
  out.pod<std::uint32_t>(meta.row_count);
  out.pod<double>(meta.min_ts);
  out.pod<double>(meta.max_ts);
  for (const auto& r : meta.symbols) {
    out.pod<std::uint32_t>(r.min_sym);
    out.pod<std::uint32_t>(r.max_sym);
  }
}

ChunkMeta read_chunk_meta(BinaryReader& in) {
  ChunkMeta meta;
  meta.offset = in.pod<std::uint64_t>();
  meta.payload_bytes = in.pod<std::uint64_t>();
  meta.checksum = in.pod<std::uint64_t>();
  meta.row_count = in.pod<std::uint32_t>();
  meta.min_ts = in.pod<double>();
  meta.max_ts = in.pod<double>();
  for (auto& r : meta.symbols) {
    r.min_sym = in.pod<std::uint32_t>();
    r.max_sym = in.pod<std::uint32_t>();
  }
  return meta;
}

ChunkMeta ChunkCodec::encode(const logs::LogTable& table, std::uint32_t begin,
                             std::uint32_t end, std::string& out) {
  const std::size_t start = out.size();
  ChunkMeta meta;
  meta.row_count = end - begin;

  ZoneMap zone;
  {
    DeltaEncoder enc;
    for (std::uint32_t i = begin; i < end; ++i) {
      zone.observe_ts(table.ts_[i], i == begin);
      enc.put(out, std::bit_cast<std::uint64_t>(table.ts_[i]));
    }
  }
  encode_enum3(out, table.method_, begin, end);
  encode_enum3(out, table.cache_, begin, end);
  {
    DeltaEncoder enc;
    for (std::uint32_t i = begin; i < end; ++i) {
      enc.put(out, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(table.status_[i])));
    }
  }
  encode_delta_u64(out, table.resp_bytes_.data(), begin, end);
  encode_delta_u64(out, table.req_bytes_.data(), begin, end);
  {
    DeltaEncoder enc;
    for (std::uint32_t i = begin; i < end; ++i) {
      enc.put(out, static_cast<std::uint64_t>(table.edge_[i]));
    }
  }
  const std::vector<logs::StringInterner::Symbol>* sym_cols[kSymbolColumns] = {
      &table.url_,    &table.client_id_, &table.ua_,
      &table.domain_, &table.ctype_,     &table.client_,
  };
  for (std::size_t c = 0; c < kSymbolColumns; ++c) {
    DeltaEncoder enc;
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t sym = (*sym_cols[c])[i];
      zone.observe_sym(c, sym, i == begin);
      enc.put(out, static_cast<std::uint64_t>(sym));
    }
  }

  meta.min_ts = zone.min_ts;
  meta.max_ts = zone.max_ts;
  meta.symbols = zone.symbols;
  meta.payload_bytes = out.size() - start;
  meta.checksum =
      payload_checksum(std::string_view(out).substr(start));
  return meta;
}

void ChunkCodec::decode(std::string_view payload, const ChunkMeta& meta,
                        logs::LogTable& table, const std::string& path) {
  if (payload.size() != meta.payload_bytes) {
    jlog_corrupt(path, "chunk payload length mismatch");
  }
  if (payload_checksum(payload) != meta.checksum) {
    jlog_corrupt(path, "chunk payload checksum mismatch");
  }
  const std::uint32_t n = meta.row_count;
  const std::size_t first = table.size();
  std::size_t pos = 0;
  std::vector<std::uint64_t> scratch;

  decode_delta_column(payload, pos, n, table.ts_, scratch, path,
                      [](std::uint64_t v) { return std::bit_cast<double>(v); });
  decode_enum3(payload, pos, n, table.method_, kMethodCount, path,
               "method value out of range");
  decode_enum3(payload, pos, n, table.cache_, logs::kCacheStatusCount, path,
               "cache status out of range");
  decode_delta_column(
      payload, pos, n, table.status_, scratch, path, [&](std::uint64_t v) {
        const auto s = static_cast<std::int64_t>(v);
        if (s < std::numeric_limits<std::int32_t>::min() ||
            s > std::numeric_limits<std::int32_t>::max()) {
          jlog_corrupt(path, "status value out of range");
        }
        return static_cast<std::int32_t>(s);
      });
  decode_delta_column(payload, pos, n, table.resp_bytes_, scratch, path,
                      [](std::uint64_t v) { return v; });
  decode_delta_column(payload, pos, n, table.req_bytes_, scratch, path,
                      [](std::uint64_t v) { return v; });
  decode_delta_column(
      payload, pos, n, table.edge_, scratch, path, [&](std::uint64_t v) {
        if (v > 0xffffffffULL) {
          jlog_corrupt(path, "edge id out of range");
        }
        return static_cast<std::uint32_t>(v);
      });

  struct SymCol {
    std::vector<logs::StringInterner::Symbol>* col;
    const logs::StringInterner* dict;
  };
  const SymCol sym_cols[kSymbolColumns] = {
      {&table.url_, &table.url_dict_},
      {&table.client_id_, &table.client_id_dict_},
      {&table.ua_, &table.ua_dict_},
      {&table.domain_, &table.domain_dict_},
      {&table.ctype_, &table.ctype_dict_},
      {&table.client_, &table.client_dict_},
  };
  for (const auto& sc : sym_cols) {
    decode_delta_column(
        payload, pos, n, *sc.col, scratch, path, [&](std::uint64_t v) {
          if (v >= sc.dict->size()) {
            jlog_corrupt(path, "symbol out of dictionary range");
          }
          return static_cast<std::uint32_t>(v);
        });
  }
  if (pos != payload.size()) {
    jlog_corrupt(path, "trailing bytes in chunk payload");
  }

  // Recompute the zone map from the decoded rows and hold the directory to
  // it — pruning must be able to trust what it skipped.
  ZoneMap zone;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t row = first + i;
    zone.observe_ts(table.ts_[row], i == 0);
    for (std::size_t c = 0; c < kSymbolColumns; ++c) {
      zone.observe_sym(c, (*sym_cols[c].col)[row], i == 0);
    }
  }
  if (!zone.matches(meta)) {
    jlog_corrupt(path, "zone map does not match chunk contents");
  }
}

void ChunkCodec::write_dictionaries(BinaryWriter& out,
                                    const logs::LogTable& table) {
  write_dictionary(out, table.url_dict_);
  write_dictionary(out, table.client_id_dict_);
  write_dictionary(out, table.ua_dict_);
  write_dictionary(out, table.domain_dict_);
  write_dictionary(out, table.ctype_dict_);
  write_dictionary(out, table.client_dict_);
}

void ChunkCodec::read_dictionaries(BinaryReader& in, logs::LogTable& table,
                                   const std::string& path) {
  read_dictionary(in, table.url_dict_, path);
  read_dictionary(in, table.client_id_dict_, path);
  read_dictionary(in, table.ua_dict_, path);
  read_dictionary(in, table.domain_dict_, path);
  read_dictionary(in, table.ctype_dict_, path);
  read_dictionary(in, table.client_dict_, path);
}

}  // namespace jsoncdn::shard
