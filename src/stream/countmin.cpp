#include "stream/countmin.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/hash.h"
#include "stats/rng.h"

namespace jsoncdn::stream {

CountMinSketch::CountMinSketch(double epsilon, double delta,
                               std::uint64_t seed)
    : epsilon_(epsilon), delta_(delta), seed_(seed) {
  if (!(epsilon > 0.0 && epsilon < 1.0))
    throw std::invalid_argument("CountMinSketch: epsilon outside (0,1)");
  if (!(delta > 0.0 && delta < 1.0))
    throw std::invalid_argument("CountMinSketch: delta outside (0,1)");
  width_ = static_cast<std::size_t>(std::ceil(std::exp(1.0) / epsilon));
  depth_ = static_cast<std::size_t>(std::ceil(std::log(1.0 / delta)));
  width_ = std::max<std::size_t>(width_, 2);
  depth_ = std::max<std::size_t>(depth_, 1);
  cells_.assign(width_ * depth_, 0);
}

std::size_t CountMinSketch::cell(std::size_t row,
                                 std::uint64_t key_hash) const noexcept {
  // Row hashes are derived by re-mixing the key hash with a per-row seed;
  // splitmix64 gives independent-enough functions for the CM analysis.
  const std::uint64_t h =
      stats::splitmix64(key_hash ^ stats::splitmix64(seed_ + row + 1));
  return row * width_ + static_cast<std::size_t>(h % width_);
}

void CountMinSketch::add(std::uint64_t key_hash, std::uint64_t count) {
  for (std::size_t row = 0; row < depth_; ++row)
    cells_[cell(row, key_hash)] += count;
  total_ += count;
}

void CountMinSketch::add(std::string_view key, std::uint64_t count) {
  add(stats::fnv1a64(key), count);
}

std::uint64_t CountMinSketch::estimate(std::uint64_t key_hash) const {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t row = 0; row < depth_; ++row)
    best = std::min(best, cells_[cell(row, key_hash)]);
  return depth_ == 0 ? 0 : best;
}

std::uint64_t CountMinSketch::estimate(std::string_view key) const {
  return estimate(stats::fnv1a64(key));
}

void CountMinSketch::merge(const CountMinSketch& other) {
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_)
    throw std::invalid_argument("CountMinSketch::merge: shape mismatch");
  for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  total_ += other.total_;
}

}  // namespace jsoncdn::stream
