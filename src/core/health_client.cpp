#include "core/health_client.hpp"

#include <stdexcept>
#include <string>

namespace dohperf::core {

HealthTrackingClient::HealthTrackingClient(
    simnet::EventLoop& loop, std::vector<ResolverClient*> resolvers,
    HealthConfig config)
    : PolicyClient(loop, config.obs),
      resolvers_(std::move(resolvers)),
      config_(config),
      health_(resolvers_.size()) {
  if (resolvers_.empty()) {
    throw std::logic_error("HealthTrackingClient needs >= 1 resolver");
  }
}

int HealthTrackingClient::pick(const Pending& pending) const {
  // First pass: closed (or cooled-down) breakers in preference order.
  for (std::size_t i = 0; i < resolvers_.size(); ++i) {
    if (pending.tried[i]) continue;
    const ResolverHealth& h = health_[i];
    if (h.state != BreakerState::kOpen || loop_.now() >= h.open_until) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::uint64_t HealthTrackingClient::resolve(const dns::Name& name,
                                            dns::RType type,
                                            ResolveCallback callback) {
  const std::uint64_t id = open();
  Pending& pending = pending_[id];
  pending.callback = std::move(callback);
  pending.name = name;
  pending.type = type;
  pending.tried.assign(resolvers_.size(), false);

  int resolver = pick(pending);
  if (resolver < 0) {
    // Every breaker open: desperation probe on the preferred resolver
    // rather than failing without sending anything.
    resolver = 0;
  }
  dispatch(id, static_cast<std::size_t>(resolver));
  return id;
}

void HealthTrackingClient::dispatch(std::uint64_t id, std::size_t resolver) {
  Pending& pending = pending_.at(id);
  pending.tried[resolver] = true;
  ResolverHealth& h = health_[resolver];
  if (h.state == BreakerState::kOpen && loop_.now() >= h.open_until) {
    h.state = BreakerState::kHalfOpen;  // this query is the probe
    obs_.count("breaker.probes");
    export_state(resolver);
  }
  ++h.queries;
  resolvers_[resolver]->resolve(
      pending.name, pending.type,
      [this, id, resolver](const ResolutionResult& r) {
        on_result(id, resolver, r);
      });
}

void HealthTrackingClient::on_result(std::uint64_t id, std::size_t resolver,
                                     const ResolutionResult& r) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;

  const bool ok = definitive(r);
  if (ok) {
    record_success(resolver);
  } else {
    record_failure(resolver);
    const int next = pick(it->second);
    if (next >= 0) {
      ++failovers_;
      obs_.count("health.failovers");
      dispatch(id, static_cast<std::size_t>(next));
      return;
    }
    ++exhausted_;
    obs_.count("health.exhausted");
  }

  ResolveCallback callback = std::move(it->second.callback);
  pending_.erase(it);
  ResolutionResult out = r;
  out.success = ok;
  deliver(id, std::move(out), std::move(callback));
}

void HealthTrackingClient::record_success(std::size_t resolver) {
  ResolverHealth& h = health_[resolver];
  h.consecutive_failures = 0;
  if (h.state != BreakerState::kClosed) {
    obs_.count("breaker.closes");
    h.state = BreakerState::kClosed;  // probe success closes the breaker
    export_state(resolver);
  }
}

void HealthTrackingClient::record_failure(std::size_t resolver) {
  ResolverHealth& h = health_[resolver];
  ++h.failures;
  ++h.consecutive_failures;
  if (h.state == BreakerState::kHalfOpen ||
      h.consecutive_failures >= config_.failure_threshold) {
    // A failed probe re-opens immediately; repeated failures trip it.
    h.state = BreakerState::kOpen;
    h.open_until = loop_.now() + config_.open_duration;
    h.consecutive_failures = 0;
    ++h.breaker_trips;
    obs_.count("breaker.trips");
    export_state(resolver);
  }
}

void HealthTrackingClient::export_state(std::size_t resolver) {
  if (obs_.metrics == nullptr) return;  // skip building the name
  const ResolverHealth& h = health_[resolver];
  std::int64_t value = 0;
  if (h.state == BreakerState::kOpen) value = 1;
  if (h.state == BreakerState::kHalfOpen) value = 2;
  obs_.set_gauge("breaker.state." + std::to_string(resolver), value);
}

}  // namespace dohperf::core
