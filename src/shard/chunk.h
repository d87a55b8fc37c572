// Compressed column-chunk codec for the `.jlog` v2 store.
//
// A chunk payload holds a fixed row range of every LogTable column,
// compressed independently, in this order:
//
//   timestamps      zigzag-delta varints of the f64 bit patterns — exact
//                   (bit-for-bit) for any double; time-clustered chunks
//                   make the deltas small
//   method          3-bit packed (7 enumerators)
//   cache_status    3-bit packed (6 enumerators)
//   status          zigzag-delta varints (runs of equal statuses cost
//                   one byte each)
//   response_bytes  zigzag-delta varints, modular u64 — u64 max round-trips
//   request_bytes   zigzag-delta varints
//   edge_id         zigzag-delta varints
//   6 symbol cols   zigzag-delta varints each, in dictionary order —
//                   symbols are file-global (the footer dictionaries)
//
// encode() also derives the chunk's zone map (min/max timestamp, min/max
// symbol per keyed column). decode() recomputes that zone map from the
// decoded rows and requires it to match the directory entry — so a zone
// map that lies about its chunk (both checksums intact) is rejected, and
// pruning decisions are trustworthy, not just memory-safe.
#pragma once

#include <string>
#include <string_view>

#include "logs/table.h"
#include "shard/format.h"

namespace jsoncdn::shard {

// Fixed 92-byte directory-entry serialization (field-by-field, never struct
// memcpy — padding must not reach the file). The reader's bounds checks make
// a truncated directory throw before any entry is used.
void write_chunk_meta(BinaryWriter& out, const ChunkMeta& meta);
[[nodiscard]] ChunkMeta read_chunk_meta(BinaryReader& in);

// Friend of logs::LogTable — reads/fills columns directly, so no per-row
// accessor or interning cost on either side.
class ChunkCodec {
 public:
  // Encodes rows [begin, end) of `table`, appending the payload to `out`.
  // Returns the chunk's directory entry with row_count, zone map,
  // payload_bytes, and checksum filled in; the caller sets `offset`.
  [[nodiscard]] static ChunkMeta encode(const logs::LogTable& table,
                                        std::uint32_t begin, std::uint32_t end,
                                        std::string& out);

  // Decodes one payload, appending meta.row_count rows to `table`, whose
  // dictionaries must already hold every referenced symbol (the reader
  // loads them from the footer first). Fully validated: the payload must
  // decode to exactly row_count rows with no bytes left over, enums and
  // symbols must be in range, and the recomputed zone map must equal
  // `meta`. Throws std::runtime_error via jlog_corrupt otherwise.
  static void decode(std::string_view payload, const ChunkMeta& meta,
                     logs::LogTable& table, const std::string& path);

  // Footer dictionaries, straight into/out of the table's interners. The
  // reader requires every block to come out dense, unique and in file
  // order: a duplicate entry would silently remap every row referencing
  // the later copy.
  static void write_dictionaries(BinaryWriter& out,
                                 const logs::LogTable& table);
  static void read_dictionaries(BinaryReader& in, logs::LogTable& table,
                                const std::string& path);
};

}  // namespace jsoncdn::shard
