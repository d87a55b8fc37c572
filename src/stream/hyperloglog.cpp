#include "stream/hyperloglog.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "stats/hash.h"
#include "stats/rng.h"

namespace jsoncdn::stream {

HyperLogLog::HyperLogLog(unsigned precision) : precision_(precision) {
  if (precision < 4 || precision > 18)
    throw std::invalid_argument("HyperLogLog: precision outside [4,18]");
  registers_.assign(std::size_t{1} << precision, 0);
}

void HyperLogLog::add(std::uint64_t element_hash) {
  // Finalize the caller's hash: the estimator needs every bit independently
  // mixed, and common input hashes (fnv1a over near-identical strings) fall
  // short of that on their own.
  const std::uint64_t mixed = stats::splitmix64(element_hash);
  const std::size_t idx =
      static_cast<std::size_t>(mixed >> (64 - precision_));
  // Rank of the first set bit in the remaining 64-p bits, in [1, 65-p].
  const std::uint64_t rest = mixed << precision_;
  const auto rank = static_cast<std::uint8_t>(
      rest == 0 ? 65 - precision_ : std::countl_zero(rest) + 1);
  registers_[idx] = std::max(registers_[idx], rank);
}

void HyperLogLog::add(std::string_view element) {
  add(stats::fnv1a64(element));
}

double HyperLogLog::standard_error() const noexcept {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

double HyperLogLog::estimate() const {
  const auto m = static_cast<double>(registers_.size());
  double inv_sum = 0.0;
  std::size_t zeros = 0;
  for (const auto reg : registers_) {
    inv_sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) ++zeros;
  }
  const double alpha =
      registers_.size() <= 16   ? 0.673
      : registers_.size() <= 32 ? 0.697
      : registers_.size() <= 64 ? 0.709
                                : 0.7213 / (1.0 + 1.079 / m);
  const double raw = alpha * m * m / inv_sum;
  // Small-range correction: linear counting while registers stay sparse.
  if (raw <= 2.5 * m && zeros > 0)
    return m * std::log(m / static_cast<double>(zeros));
  // 64-bit hashes make the classic large-range correction unnecessary at
  // any cardinality this library will see.
  return raw;
}

void HyperLogLog::merge(const HyperLogLog& other) {
  if (precision_ != other.precision_)
    throw std::invalid_argument("HyperLogLog::merge: precision mismatch");
  for (std::size_t i = 0; i < registers_.size(); ++i)
    registers_[i] = std::max(registers_[i], other.registers_[i]);
}

}  // namespace jsoncdn::stream
