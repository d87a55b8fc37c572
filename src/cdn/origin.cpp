#include "cdn/origin.h"

namespace jsoncdn::cdn {

Origin::Origin(const workload::ObjectCatalog& catalog) : catalog_(catalog) {}

void Origin::apply_faults(OriginResult& result, std::string_view url,
                          double now) const {
  if (faults_ == nullptr || !faults_->enabled()) return;
  // The plan is keyed by the customer origin (the object's domain); requests
  // for unknown objects key on the URL — they reach *some* infrastructure.
  const std::string_view key =
      result.object != nullptr ? std::string_view(result.object->domain) : url;
  const auto decision = faults_->next(key, now);
  switch (decision.outcome) {
    case faults::FaultOutcome::kOk:
      result.latency_seconds *= decision.latency_multiplier;
      return;
    case faults::FaultOutcome::kError:
      // Fast 5xx: the origin answered, just not with content.
      result.status = decision.status;
      result.latency_seconds =
          OriginParams::rtt_seconds + OriginParams::processing_seconds;
      result.bytes = 0;
      break;
    case faults::FaultOutcome::kTimeout:
      // Hung connection: nothing comes back; the edge decides how long it
      // waits (its timeout budget), so charge only the round trip here.
      result.timed_out = true;
      result.status = 504;
      result.latency_seconds = OriginParams::rtt_seconds;
      result.bytes = 0;
      break;
    case faults::FaultOutcome::kTruncated:
      // 200 on the wire, connection dropped mid-body: half the bytes
      // arrive and the response is unusable.
      result.truncated = true;
      result.bytes /= 2;
      result.latency_seconds =
          OriginParams::rtt_seconds + OriginParams::processing_seconds +
          static_cast<double>(result.bytes) /
              OriginParams::bandwidth_bytes_per_s;
      break;
  }
  ++faulted_;
}

OriginResult Origin::fetch(std::string_view url, double now) const {
  ++fetches_;
  OriginResult out;
  out.object = catalog_.find(url);
  out.latency_seconds =
      OriginParams::rtt_seconds + OriginParams::processing_seconds;
  if (out.object != nullptr) {
    out.bytes = out.object->body_bytes;
    out.latency_seconds +=
        static_cast<double>(out.bytes) / OriginParams::bandwidth_bytes_per_s;
  } else {
    out.status = 404;
  }
  apply_faults(out, url, now);
  bytes_ += out.bytes;
  return out;
}

OriginResult Origin::revalidate(std::string_view url, double now) const {
  ++fetches_;
  OriginResult out;
  out.object = catalog_.find(url);
  out.latency_seconds =
      OriginParams::rtt_seconds + OriginParams::processing_seconds;
  if (out.object == nullptr) out.status = 404;
  // 304: headers only, no body bytes served.
  apply_faults(out, url, now);
  return out;
}

}  // namespace jsoncdn::cdn
