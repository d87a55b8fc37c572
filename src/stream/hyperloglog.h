// HyperLogLog (Flajolet et al. '07): distinct-count estimation in
// 2^precision one-byte registers. Standard error is ~1.04 / sqrt(2^p);
// small cardinalities fall back to linear counting over empty registers,
// which keeps the relative error within the same band across the range the
// flow-eligibility filters care about (tens to millions).
//
// Merge contract: register-wise max — commutative, associative, idempotent —
// so a sharded ingest merged in any order is bit-identical to the
// single-pass sketch, and the same element offered to several shards still
// counts once.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace jsoncdn::stream {

class HyperLogLog {
 public:
  // Requires 4 <= precision <= 18.
  explicit HyperLogLog(unsigned precision = 12);

  // Any 64-bit hash is acceptable input: add() applies a splitmix64
  // finalizer, so weakly-mixed hashes (fnv1a over near-identical strings)
  // do not bias the estimate.
  void add(std::uint64_t element_hash);
  void add(std::string_view element);

  // Bias-corrected cardinality estimate.
  [[nodiscard]] double estimate() const;

  // The configured standard relative error (1.04 / sqrt(m)).
  [[nodiscard]] double standard_error() const noexcept;

  // Requires matching precision; throws std::invalid_argument otherwise.
  void merge(const HyperLogLog& other);

  [[nodiscard]] unsigned precision() const noexcept { return precision_; }
  [[nodiscard]] std::size_t register_count() const noexcept {
    return registers_.size();
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return registers_.capacity() + sizeof(*this);
  }

 private:
  unsigned precision_;
  std::vector<std::uint8_t> registers_;
};

}  // namespace jsoncdn::stream
