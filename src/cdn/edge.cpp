#include "cdn/edge.h"

#include <algorithm>

namespace jsoncdn::cdn {

EdgeServer::EdgeServer(std::uint32_t id, const Origin& origin,
                       const logs::Anonymizer& anonymizer,
                       const EdgeParams& params)
    : id_(id),
      origin_(origin),
      anonymizer_(anonymizer),
      params_(params),
      cache_(params.cache_capacity_bytes),
      overload_(params.overload) {}

bool EdgeServer::is_machine(const std::string& user_agent) {
  const auto it = ua_machine_.find(user_agent);
  if (it != ua_machine_.end()) return it->second;
  const bool machine = machine_class(user_agent);
  ua_machine_.emplace(user_agent, machine);
  return machine;
}

EdgeServer::OriginOutcome EdgeServer::contact_origin(const std::string& url,
                                                     const std::string& domain,
                                                     double now,
                                                     bool revalidate_only) {
  OriginOutcome out;
  auto& breaker = breakers_[domain];
  const auto trips_before = breaker.trips();
  if (!breaker.allow(now)) {
    out.short_circuited = true;
    out.status = 503;
    ++resilience_.breaker_short_circuits;
    return out;
  }

  for (std::size_t attempt = 0;; ++attempt) {
    const auto result = revalidate_only ? origin_.revalidate(url, now)
                                        : origin_.fetch(url, now);
    if (!result.failed()) {
      out.result = result;
      out.latency += result.latency_seconds;
      out.success = true;
      out.status = result.status;
      if (attempt > 0) ++resilience_.retry_successes;
      breaker.record_success(now);
      break;
    }

    ++resilience_.origin_errors;
    if (result.timed_out) {
      ++resilience_.timeouts;
      // A hung connection is abandoned at the budget, not at whatever the
      // origin's internal latency would have been.
      out.latency += ResilienceParams::timeout_seconds;
    } else {
      out.latency += result.latency_seconds;
      if (result.truncated) ++resilience_.truncated_bodies;
    }
    out.status = result.timed_out    ? 504
                 : result.truncated ? 502
                                    : result.status;
    breaker.record_failure(now);

    // Stop when retries are exhausted or the breaker just tripped open.
    if (attempt >= faults::RetryConfig::max_retries || !breaker.allow(now))
      break;
    const double delay = faults::backoff_delay(url, attempt);
    out.latency += delay;
    resilience_.backoff_seconds += delay;
    ++resilience_.retries;
  }
  resilience_.breaker_trips += breaker.trips() - trips_before;
  return out;
}

logs::LogRecord EdgeServer::handle(const workload::RequestEvent& event,
                                   PrefetchPolicy* policy) {
  if (!params_.overload.model_capacity) {
    // Overload protection off: the request path is untouched, so runs are
    // bit-identical to builds without an admission layer.
    return serve(event, policy, /*queue_wait=*/0.0);
  }

  const double now = event.time;
  const bool machine = is_machine(event.user_agent);
  const auto decision = overload_.admit(event.client_address, machine, now);
  auto& cls = machine ? two_class_.machine : two_class_.human;
  ++cls.requests;

  if (!decision.admitted()) {
    logs::LogRecord record;
    record.timestamp = now;
    record.client_id = anonymizer_.pseudonym(event.client_address);
    record.user_agent = event.user_agent;
    record.method = event.method;
    record.url = event.url;
    record.request_bytes = event.request_bytes;
    record.edge_id = id_;
    record.content_type = "text/plain";
    record.response_bytes = 0;
    if (const auto* object = origin_.describe(event.url)) {
      record.domain = object->domain;
    }
    if (decision.outcome == AdmitOutcome::kThrottled) {
      record.status = 429;
      record.cache_status = logs::CacheStatus::kThrottled;
      ++resilience_.throttled;
      ++cls.throttled;
    } else {
      record.status = 503;
      record.cache_status = logs::CacheStatus::kShed;
      if (decision.outcome == AdmitOutcome::kShedQueueFull) {
        ++resilience_.shed_queue_full;
      } else {
        ++resilience_.shed_overload;
      }
      ++cls.shed;
    }
    metrics_.record_rejected();
    return record;
  }

  resilience_.queue_wait_seconds += decision.queue_wait;
  auto record = serve(event, policy, decision.queue_wait);
  // The worker is occupied for the transfer time of whatever body was sent
  // (floored in complete()), so oversized responses hold a slot longer.
  overload_.complete(now, static_cast<double>(record.response_bytes) /
                              params_.edge_bandwidth_bytes_per_s);
  ++cls.served;
  if (record.cache_status == logs::CacheStatus::kHit ||
      record.cache_status == logs::CacheStatus::kRefreshHit ||
      record.cache_status == logs::CacheStatus::kStale) {
    ++cls.hits;
  }
  // serve() pushes exactly one latency per request; reuse it rather than
  // threading a second return value through every exit path.
  cls.latencies.push_back(metrics_.latencies().back());
  return record;
}

logs::LogRecord EdgeServer::serve(const workload::RequestEvent& event,
                                  PrefetchPolicy* policy, double queue_wait) {
  const double now = event.time;
  // Client-perceived floor for anything the edge answers itself: the RTT
  // plus however long the request waited for a worker.
  const double rtt = params_.client_rtt_seconds + queue_wait;

  logs::LogRecord record;
  record.timestamp = now;
  record.client_id = anonymizer_.pseudonym(event.client_address);
  record.user_agent = event.user_agent;
  record.method = event.method;
  record.url = event.url;
  record.request_bytes = event.request_bytes;
  record.edge_id = id_;

  // Metadata first; the origin is only contacted on the paths that really
  // reach it (miss, revalidation, uncacheable tunnel, 404).
  const auto* object = origin_.describe(event.url);
  if (object == nullptr) {
    // Unknown object: tunneled to origin. Even a 404 needs the origin to
    // answer, so a failing origin turns it into an error response. Single
    // attempt — the edge does not retry objects it knows nothing about.
    const auto origin_result = origin_.fetch(event.url, now);
    record.content_type = "text/plain";
    record.response_bytes = 0;
    if (origin_result.failed()) {
      ++resilience_.origin_errors;
      double origin_latency = origin_result.latency_seconds;
      if (origin_result.timed_out) {
        ++resilience_.timeouts;
        origin_latency = ResilienceParams::timeout_seconds;
      } else if (origin_result.truncated) {
        ++resilience_.truncated_bodies;
      }
      record.status = origin_result.timed_out    ? 504
                      : origin_result.truncated ? 502
                                                : origin_result.status;
      record.cache_status = logs::CacheStatus::kError;
      ++resilience_.error_responses;
      metrics_.record_error(rtt + origin_latency);
      return record;
    }
    record.status = 404;
    record.cache_status = logs::CacheStatus::kNotCacheable;
    metrics_.record(/*cacheable=*/false, /*hit=*/false, 0,
                    rtt + origin_result.latency_seconds);
    return record;
  }

  record.domain = object->domain;
  record.content_type = object->content_type;
  record.status = 200;
  record.response_bytes = object->body_bytes;

  const double transfer =
      static_cast<double>(object->body_bytes) /
      params_.edge_bandwidth_bytes_per_s;
  const bool upload = http::is_upload(event.method);
  const bool cacheable = object->cacheable && !upload;

  // A fresh pushed copy in the client's buffer answers the request locally:
  // no edge round trip at all. Logged as a HIT — the bytes were served from
  // CDN-controlled storage.
  if (params_.enable_push && cacheable && !upload) {
    const auto push_key = record.client_key() + '\x1f' + event.url;
    if (const auto it = pushed_.find(push_key); it != pushed_.end()) {
      const bool fresh = it->second > now;
      pushed_.erase(it);
      if (fresh) {
        record.cache_status = logs::CacheStatus::kHit;
        metrics_.record(cacheable, /*hit=*/true, object->body_bytes,
                        /*latency=*/0.001);
        metrics_.mark_push_used();
        maybe_prefetch(record, policy, now);
        return record;
      }
    }
  }

  double latency = rtt + transfer;
  bool hit = false;
  // The expired copy lookup() erases, if any: revalidation and
  // stale-if-error serve from it on the miss path.
  std::optional<LruCache::StaleEntry> stale_entry;

  if (!cacheable) {
    // Tunneled to customer infrastructure, exactly as the paper describes
    // for the >55% uncacheable JSON share. Retries and the breaker apply;
    // there is no cached copy to fall back on.
    const auto outcome =
        contact_origin(event.url, object->domain, now, /*revalidate_only=*/false);
    if (!outcome.success) {
      record.status = outcome.status;
      record.cache_status = logs::CacheStatus::kError;
      record.response_bytes = 0;
      ++resilience_.error_responses;
      metrics_.record_error(rtt + outcome.latency);
      return record;
    }
    record.cache_status = logs::CacheStatus::kNotCacheable;
    latency += outcome.latency;
  } else if (cache_.lookup(event.url, now, &stale_entry).has_value()) {
    hit = true;
    record.cache_status = logs::CacheStatus::kHit;
    if (const auto it = pending_prefetches_.find(event.url);
        it != pending_prefetches_.end()) {
      metrics_.mark_prefetch_useful();
      pending_prefetches_.erase(it);
    }
  } else {
    // Cache miss (possibly with a stale copy on disk). Before touching the
    // origin, consult the negative cache: a failure observed moments ago is
    // answered without another round trip — stale copy if usable, else the
    // remembered error.
    const bool stale_available =
        params_.enable_revalidation && stale_entry.has_value();
    const bool stale_usable_on_error =
        stale_entry.has_value() &&
        now - stale_entry->expires_at <=
            ResilienceParams::stale_if_error_seconds;
    if (const auto neg = negative_cache_.find(event.url);
        neg != negative_cache_.end()) {
      if (neg->second.expires_at > now) {
        ++resilience_.negative_cache_hits;
        if (stale_usable_on_error) {
          record.cache_status = logs::CacheStatus::kStale;
          cache_.restore(event.url, stale_entry->bytes,
                         stale_entry->expires_at);
          ++resilience_.stale_served;
          metrics_.record(cacheable, /*hit=*/true, object->body_bytes,
                          latency);
          maybe_prefetch(record, policy, now);
          return record;
        }
        record.status = neg->second.status;
        record.cache_status = logs::CacheStatus::kError;
        record.response_bytes = 0;
        ++resilience_.error_responses;
        metrics_.record_error(rtt);
        return record;
      }
      negative_cache_.erase(neg);
    }

    const auto outcome =
        contact_origin(event.url, object->domain, now, stale_available);
    if (outcome.success) {
      latency += outcome.latency;
      if (stale_available) {
        // Stale copy on disk: a 304 revalidation refreshed it without
        // re-transferring the body.
        hit = true;
        record.cache_status = logs::CacheStatus::kRefreshHit;
        cache_.insert(event.url, object->body_bytes, object->ttl_seconds, now);
        metrics_.mark_refresh_hit();
      } else {
        record.cache_status = logs::CacheStatus::kMiss;
        cache_.insert(event.url, object->body_bytes, object->ttl_seconds, now);
        pending_prefetches_.erase(event.url);
      }
    } else if (stale_usable_on_error) {
      // RFC 5861 stale-if-error: the expired copy is better than the error.
      // Restore it with its old expiry so later requests during the same
      // outage can also be served stale.
      hit = true;
      record.cache_status = logs::CacheStatus::kStale;
      cache_.restore(event.url, stale_entry->bytes, stale_entry->expires_at);
      ++resilience_.stale_served;
      latency += outcome.latency;
    } else {
      // Unabsorbed failure: remember it (unless the breaker answered without
      // asking the origin) and return the error to the client.
      if (!outcome.short_circuited) {
        negative_cache_[event.url] = {
            now + ResilienceParams::negative_ttl_seconds, outcome.status};
        if (negative_cache_.size() > 100'000) {
          std::erase_if(negative_cache_, [now](const auto& kv) {
            return kv.second.expires_at <= now;
          });
        }
      }
      record.status = outcome.status;
      record.cache_status = logs::CacheStatus::kError;
      record.response_bytes = 0;
      ++resilience_.error_responses;
      metrics_.record_error(rtt + outcome.latency);
      return record;
    }
  }

  metrics_.record(cacheable, hit, object->body_bytes, latency);
  maybe_prefetch(record, policy, now);
  return record;
}

std::vector<BreakerEvent> EdgeServer::breaker_timeline() const {
  std::vector<BreakerEvent> events;
  for (const auto& [domain, breaker] : breakers_) {
    for (const auto& transition : breaker.timeline()) {
      events.push_back({id_, domain, transition});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const BreakerEvent& a, const BreakerEvent& b) {
              if (a.transition.time != b.transition.time) {
                return a.transition.time < b.transition.time;
              }
              return a.domain < b.domain;
            });
  return events;
}

void EdgeServer::maybe_prefetch(const logs::LogRecord& served,
                                PrefetchPolicy* policy, double now) {
  if (policy == nullptr) return;
  auto candidates = policy->candidates(served);
  std::size_t issued = 0;
  std::size_t pushed = 0;
  for (const auto& url : candidates) {
    if (issued >= params_.max_prefetches_per_request) break;
    const workload::ObjectSpec* object = nullptr;
    if (!cache_.contains(url, now)) {
      const auto result = origin_.fetch(url, now);
      // Speculative traffic gets no resilience budget: a failed prefetch is
      // simply dropped.
      if (result.object == nullptr || result.failed() ||
          !result.object->cacheable) {
        continue;
      }
      object = result.object;
      cache_.insert(url, object->body_bytes, object->ttl_seconds, now);
      pending_prefetches_.insert(url);
      metrics_.record_prefetch(object->body_bytes);
      ++issued;
    }
    // Push the speculative response to this client as well: the copy rides
    // the open connection and is valid for a short window.
    if (params_.enable_push && pushed < params_.max_pushes_per_request) {
      const auto bytes =
          object != nullptr ? object->body_bytes : cache_.lookup(url, now)
                                  .value_or(0);
      if (bytes > 0) {
        pushed_[served.client_key() + '\x1f' + url] =
            now + params_.push_validity_seconds;
        metrics_.record_push(bytes);
        ++pushed;
      }
    }
  }
  // Bound push-table memory: drop expired entries once the table grows past
  // the configured size, or periodically on simulated time. Both triggers
  // only remove entries whose expiry has passed — entries a later request
  // could never consume — so sweeping cannot change any served response.
  if (pushed_.size() > params_.push_table_sweep_entries ||
      now - last_push_sweep_ >= params_.push_table_sweep_seconds) {
    last_push_sweep_ = now;
    std::erase_if(pushed_, [now](const auto& kv) { return kv.second <= now; });
  }
}

}  // namespace jsoncdn::cdn
