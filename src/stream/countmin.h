// Count-Min sketch (Cormode & Muthukrishnan '05): bounded-memory frequency
// estimation over a key stream. With width w = ceil(e/epsilon) and depth
// d = ceil(ln(1/delta)), every point query overestimates by at most
// epsilon * N (N = total stream weight) with probability >= 1 - delta, and
// never underestimates.
//
// Merge contract: two sketches with identical (width, depth, seed) merge by
// cell-wise addition — commutative and associative over integers, so a
// sharded ingest merged in any order is bit-identical to the single-pass
// sketch over the concatenated stream.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace jsoncdn::stream {

class CountMinSketch {
 public:
  // Requires 0 < epsilon < 1 and 0 < delta < 1.
  CountMinSketch(double epsilon, double delta, std::uint64_t seed = 0);

  // Adds `count` occurrences of the (pre-hashed) key.
  void add(std::uint64_t key_hash, std::uint64_t count = 1);
  void add(std::string_view key, std::uint64_t count = 1);

  // Point query: min over the key's cells. >= true count, and
  // <= true count + epsilon * total_weight() w.p. 1 - delta.
  [[nodiscard]] std::uint64_t estimate(std::uint64_t key_hash) const;
  [[nodiscard]] std::uint64_t estimate(std::string_view key) const;

  // Requires identical (width, depth, seed); throws std::invalid_argument
  // otherwise.
  void merge(const CountMinSketch& other);

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  [[nodiscard]] double delta() const noexcept { return delta_; }
  [[nodiscard]] std::uint64_t total_weight() const noexcept { return total_; }
  // The additive error bound the (epsilon, delta) configuration promises for
  // the stream ingested so far.
  [[nodiscard]] double error_bound() const noexcept {
    return epsilon_ * static_cast<double>(total_);
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return cells_.capacity() * sizeof(std::uint64_t) + sizeof(*this);
  }

 private:
  [[nodiscard]] std::size_t cell(std::size_t row,
                                 std::uint64_t key_hash) const noexcept;

  double epsilon_;
  double delta_;
  std::size_t width_;
  std::size_t depth_;
  std::uint64_t seed_;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> cells_;  // depth_ rows of width_ cells
};

}  // namespace jsoncdn::stream
