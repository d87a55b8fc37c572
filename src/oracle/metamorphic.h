// Metamorphic transformations over log datasets, and the label extractors
// that make their relations checkable.
//
// Each transform encodes a relation the analyses must satisfy without any
// reference output: shifting every timestamp must not change periodicity
// labels (the detector bins relative to flow start); interleaving a flow-
// disjoint copy must leave the original flows' labels untouched (per-flow
// randomness is forked from stable url/client hashes, not flow indices);
// benign noise on fresh clients and URLs must do the same; renaming URLs
// with an order-preserving infix must leave ngram accuracy bit-identical
// (ranking ties break lexicographically, and an order-preserving rename
// cannot reorder them). Violations are real bugs, not tolerance issues.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "core/periodicity.h"
#include "logs/table.h"

namespace jsoncdn::oracle {

// Each relation returns a new table built from the view's rows (in view
// order unless noted); the input is left untouched.

// Every record's timestamp shifted by `delta_seconds` (record order kept).
// Note each shifted timestamp is individually rounded to the nearest double,
// so inter-arrival gaps move by up to one ulp of the shifted values — labels
// must survive that exactly, periods may wiggle at the 1e-9 level.
[[nodiscard]] logs::LogTable shift_time(const logs::TableView& view,
                                        double delta_seconds);

// Every record's timestamp multiplied by `factor` (> 0). A detector must
// scale with its input: every detected period scales by the same factor
// (compare against scale_periods of the original labels, with a small
// relative tolerance — binning quantizes periods to bin multiples, and the
// bin width itself rescales).
[[nodiscard]] logs::LogTable scale_time(const logs::TableView& view,
                                        double factor);

// Concatenates two logs and restores the ascending-time invariant (stable:
// at equal timestamps rows of `a` come first).
[[nodiscard]] logs::LogTable merge_datasets(const logs::TableView& a,
                                            const logs::TableView& b);

// A copy whose client ids, URLs, and domains all carry `tag`, making every
// flow of the copy disjoint from every flow of the original. Merging it back
// in doubles the traffic without touching any original flow.
[[nodiscard]] logs::LogTable rename_disjoint(const logs::TableView& view,
                                             const std::string& tag);

// `count` extra requests from fresh single-request clients against fresh
// URLs, timestamps drawn deterministically from `seed` across the view's
// time range, merged in time order. No original flow gains or loses a
// request.
[[nodiscard]] logs::LogTable inject_benign_noise(const logs::TableView& view,
                                                 std::size_t count,
                                                 std::uint64_t seed);

// Inserts `infix` into every URL directly after its "https://" scheme (and
// prefixes the domain field to match). Because the insertion point and text
// are identical for all URLs, lexicographic order among URLs — and among
// their cluster keys — is preserved, which is exactly what the ngram
// model's tie-breaking depends on.
[[nodiscard]] logs::LogTable rename_urls_order_preserving(
    const logs::TableView& view, const std::string& infix);

// Flattens a periodicity report to (url, client_key) -> (periodic, period)
// for exact comparison across metamorphic runs. `url_strip_infix`: when
// comparing against a renamed run, the infix is removed from URLs so keys
// line up with the original's.
using DetectionLabels =
    std::map<std::pair<std::string, std::string>, std::pair<bool, double>>;
[[nodiscard]] DetectionLabels detection_labels(
    const core::PeriodicityReport& report,
    const std::string& url_strip_infix = {});

// The expected labels after scale_time(view, factor): same flows, same
// periodic flags, periods multiplied by `factor`.
[[nodiscard]] DetectionLabels scale_periods(const DetectionLabels& labels,
                                            double factor);

// detection_labels(report) restricted to keys present in `reference` — how
// interleaving/noise runs are compared: added traffic may create new flows,
// but labels of the original flows must be identical.
[[nodiscard]] DetectionLabels restrict_labels(const DetectionLabels& labels,
                                              const DetectionLabels& reference);

// True when both label sets cover the same flows with identical periodic
// flags and periods equal within `period_rel_tol` relative tolerance
// (0 = bit-exact). The tolerant form is for the time-shift relation, where
// per-timestamp rounding legitimately moves periods at the ulp level while
// a flipped label is still a bug.
[[nodiscard]] bool labels_equivalent(const DetectionLabels& a,
                                     const DetectionLabels& b,
                                     double period_rel_tol = 0.0);

}  // namespace jsoncdn::oracle
