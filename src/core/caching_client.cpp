#include "core/caching_client.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <variant>

namespace dohperf::core {

namespace {

/// The SOA record RFC 2308 derives the negative TTL from, if the response
/// carries one in its authority section.
const dns::ResourceRecord* find_soa(const dns::Message& response) {
  for (const auto& rr : response.authorities) {
    if (rr.type == dns::RType::kSOA &&
        std::holds_alternative<dns::SoaRdata>(rr.rdata)) {
      return &rr;
    }
  }
  return nullptr;
}

}  // namespace

CachingResolverClient::CachingResolverClient(simnet::EventLoop& loop,
                                             ResolverClient& upstream,
                                             CacheConfig config)
    : PolicyClient(loop, config.obs), upstream_(upstream), config_(config) {}

void CachingResolverClient::bind_obs_ids() {
  obs::Registry* r = obs_.metrics;
  if (r == bound_metrics_) return;
  bound_metrics_ = r;
  if (r == nullptr) return;
  m_hits_ = r->register_counter("cache.hits");
  m_negative_hits_ = r->register_counter("cache.negative_hits");
  m_expirations_ = r->register_counter("cache.expirations");
  m_misses_ = r->register_counter("cache.misses");
  m_coalesced_ = r->register_counter("cache.coalesced");
  m_upstream_queries_ = r->register_counter("cache.upstream_queries");
  m_proactive_refreshes_ = r->register_counter("cache.proactive_refreshes");
  m_revalidations_ = r->register_counter("cache.revalidations");
  m_stale_serves_ = r->register_counter("cache.stale_serves");
  m_staleness_age_ms_ = r->register_histogram("cache.staleness_age_ms");
  m_negative_entries_ = r->register_counter("cache.negative_entries");
  m_evictions_ = r->register_counter("cache.evictions");
}

std::uint64_t CachingResolverClient::resolve(const dns::Name& name,
                                             dns::RType type,
                                             ResolveCallback callback) {
  bind_obs_ids();
  const std::uint64_t id = open();
  staleness_.push_back(0);
  const Key key{name, type};
  const simnet::TimeUs now = loop_.now();
  const obs::SpanId lookup = obs_.begin("cache_lookup");

  bool stale_available = false;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry& entry = it->second;
    if (entry.expires_at > now) {
      ++stats_.hits;
      obs_.set_attr(lookup, "hit", true);
      obs_.count(m_hits_);
      if (entry.negative) {
        ++stats_.negative_hits;
        obs_.set_attr(lookup, "negative", true);
        obs_.count(m_negative_hits_);
      }
      obs_.end(lookup);
      touch(entry);
      ResolutionResult hit;
      hit.success = true;
      hit.response = entry.response;
      maybe_refresh_ahead(key, entry);
      deliver(id, std::move(hit), std::move(callback));
      return id;
    }
    if (config_.max_stale > 0 &&
        now < entry.expires_at + config_.max_stale) {
      stale_available = true;  // kept: may be served while the refresh runs
    } else {
      ++stats_.expirations;
      obs_.count(m_expirations_);
      entries_.erase(it);
    }
  }

  ++stats_.misses;
  obs_.set_attr(lookup, "hit", false);
  obs_.end(lookup);
  obs_.count(m_misses_);

  const auto [fit, first_for_key] = inflight_.try_emplace(key);
  Waiter waiter;
  waiter.id = id;
  waiter.callback = std::move(callback);
  if (stale_available) {
    waiter.stale_timer = loop_.schedule_in(
        config_.stale_serve_delay,
        [this, key, id]() { on_stale_deadline(key, id); });
  }
  fit->second.waiters.push_back(std::move(waiter));
  if (!first_for_key) {
    ++stats_.coalesced;
    obs_.count(m_coalesced_);
    const obs::SpanId join = obs_.begin("coalesce_join");
    obs_.set_attr(
        join, "waiters",
        static_cast<std::int64_t>(fit->second.waiters.size()));
    obs_.end(join);
    return id;
  }
  start_upstream(key);
  return id;
}

void CachingResolverClient::start_upstream(const Key& key) {
  ++stats_.upstream_queries;
  obs_.count(m_upstream_queries_);
  upstream_.resolve(key.name, key.type,
                    [this, key](const ResolutionResult& r) {
                      on_upstream_done(key, r);
                    });
}

void CachingResolverClient::maybe_refresh_ahead(const Key& key,
                                                const Entry& entry) {
  if (config_.refresh_ahead == 0) return;
  if (entry.expires_at - loop_.now() > config_.refresh_ahead) return;
  if (inflight_.find(key) != inflight_.end()) return;  // refresh in flight
  ++stats_.proactive_refreshes;
  obs_.count(m_proactive_refreshes_);
  inflight_.try_emplace(key);  // no waiters: a pure background refresh
  start_upstream(key);
}

void CachingResolverClient::on_upstream_done(const Key& key,
                                             const ResolutionResult& r) {
  // Detach the in-flight record first: callbacks may re-resolve the same
  // key, which must start a fresh upstream query, not find this one.
  auto node = inflight_.extract(key);
  const bool answer_usable = definitive(r);
  if (answer_usable) insert(key, r.response);
  if (node.empty()) return;

  // The wire cost is charged to the first waiter that receives the
  // upstream answer; coalesced joiners added nothing to the wire.
  bool cost_charged = false;
  const auto upstream_answer = [&]() {
    ResolutionResult out = r;
    if (cost_charged) out.cost = CostReport{};
    cost_charged = true;
    return out;
  };
  bool repaired_stale_serve = false;
  for (Waiter& waiter : node.mapped().waiters) {
    if (waiter.answered) {
      repaired_stale_serve = true;  // already served stale; entry repaired
      continue;
    }
    loop_.cancel(waiter.stale_timer);
    if (!answer_usable && config_.max_stale > 0 &&
        serve_stale(key, waiter,
                    r.success ? "rcode_failure" : "upstream_failure")) {
      continue;
    }
    answer(waiter, upstream_answer());  // the answer, or the failure
  }
  if (answer_usable && repaired_stale_serve) {
    ++stats_.revalidations;
    obs_.count(m_revalidations_);
  }
}

void CachingResolverClient::on_stale_deadline(const Key& key,
                                              std::uint64_t id) {
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  for (Waiter& waiter : it->second.waiters) {
    if (waiter.id != id || waiter.answered) continue;
    serve_stale(key, waiter, "stale_timer");
    return;
  }
}

bool CachingResolverClient::serve_stale(const Key& key, Waiter& waiter,
                                        const char* reason) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  Entry& entry = it->second;
  const simnet::TimeUs now = loop_.now();
  const simnet::TimeUs age = now > entry.expires_at
                                 ? now - entry.expires_at
                                 : 0;
  if (age >= config_.max_stale) return false;  // beyond the stale window
  ++stats_.stale_serves;
  obs_.count(m_stale_serves_);
  obs_.observe(m_staleness_age_ms_, static_cast<double>(age) / 1e3);
  const obs::SpanId span = obs_.begin("stale_serve");
  obs_.set_attr(span, "staleness_ms",
                       static_cast<std::int64_t>(age / 1000));
  obs_.set_attr(span, "reason", std::string(reason));
  obs_.end(span);
  touch(entry);
  staleness_[waiter.id] = age;
  ResolutionResult stale;
  stale.success = true;
  stale.response = entry.response;
  answer(waiter, std::move(stale));
  return true;
}

void CachingResolverClient::answer(Waiter& waiter, ResolutionResult r) {
  waiter.answered = true;
  loop_.cancel(waiter.stale_timer);
  // `waiter` may move once the callback runs (a reentrant resolve() can
  // join the same in-flight key), so nothing reads it after deliver().
  deliver(waiter.id, std::move(r), std::move(waiter.callback));
}

void CachingResolverClient::insert(const Key& key,
                                   const dns::Message& response) {
  const dns::Rcode rcode = response.flags.rcode;
  const bool negative = rcode == dns::Rcode::kNxDomain ||
                        (rcode == dns::Rcode::kNoError &&
                         response.answers.empty());
  simnet::TimeUs ttl = 0;
  if (negative) {
    // RFC 2308 §3/§5: the negative TTL is min(SOA TTL, SOA MINIMUM) from
    // the authority section; without an SOA the response is not cacheable.
    const dns::ResourceRecord* soa = find_soa(response);
    if (soa == nullptr) return;
    const std::uint32_t ttl_sec =
        std::min(soa->ttl, std::get<dns::SoaRdata>(soa->rdata).minimum);
    ttl = std::clamp(simnet::seconds(ttl_sec), config_.min_ttl,
                     config_.max_negative_ttl);
  } else {
    // TTL of the answer set = minimum record TTL (RFC 2181 §5.2), clamped.
    std::uint32_t ttl_sec = std::numeric_limits<std::uint32_t>::max();
    for (const auto& rr : response.answers) {
      ttl_sec = std::min(ttl_sec, rr.ttl);
    }
    ttl = std::clamp(simnet::seconds(ttl_sec), config_.min_ttl,
                     config_.max_ttl);
  }
  if (ttl == 0) return;

  if (entries_.find(key) == entries_.end()) evict_if_needed();
  Entry entry;
  entry.response = response;
  entry.expires_at = loop_.now() + ttl;
  entry.negative = negative;
  entry.last_used_seq = next_seq_++;
  entries_[key] = std::move(entry);
  if (negative) {
    ++stats_.negative_entries;
    obs_.count(m_negative_entries_);
  }
}

void CachingResolverClient::evict_if_needed() {
  if (entries_.size() < config_.max_entries) return;
  // Evict the entry closest to (or past) expiry; least-recently-used
  // breaks ties. Expired/stale entries therefore always go first.
  auto victim = entries_.begin();
  for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
    const Entry& e = it->second;
    const Entry& v = victim->second;
    const bool earlier = e.expires_at != v.expires_at
                             ? e.expires_at < v.expires_at
                             : e.last_used_seq < v.last_used_seq;
    if (earlier) victim = it;
  }
  entries_.erase(victim);
  ++stats_.evictions;
  obs_.count(m_evictions_);
}

}  // namespace dohperf::core
