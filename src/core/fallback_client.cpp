#include "core/fallback_client.hpp"

#include <algorithm>

namespace dohperf::core {

FallbackResolverClient::FallbackResolverClient(simnet::EventLoop& loop,
                                               ResolverClient& primary,
                                               ResolverClient& fallback,
                                               FallbackConfig config)
    : RacingClient(loop, primary, fallback, config.obs),
      config_(config) {}

std::uint64_t FallbackResolverClient::resolve(const dns::Name& name,
                                              dns::RType type,
                                              ResolveCallback callback) {
  return race(name, type, std::move(callback), config_.primary_deadline,
              "deadline");
}

std::optional<obs::SpanId> FallbackResolverClient::admit_secondary(
    std::uint64_t id) {
  ++stats_.fallback_started;
  const simnet::TimeUs waited = loop_.now() - result(id).sent_at;
  stats_.decision_latency_total += waited;
  stats_.decision_latency_max = std::max(stats_.decision_latency_max, waited);
  return obs_.begin("fallback");
}

void FallbackResolverClient::on_answer(std::uint64_t id, const Race& race,
                                       bool from_primary,
                                       const ResolutionResult& r) {
  if (!from_primary) {
    if (definitive(r)) {
      ++stats_.fallback_used;
      obs_.count("fallback.used");
    } else {
      ++stats_.both_failed;
      obs_.count("fallback.both_failed");
    }
    finish(id, r);
    return;
  }
  if (definitive(r)) {
    if (!race.secondary_started) {
      ++stats_.primary_wins;
      obs_.count("fallback.primary_wins");
    }
    finish(id, r);
  } else if (race.secondary_started) {
    // Primary failed after the fallback started: wait for the fallback.
    ++stats_.primary_late_failures;
  } else if (r.success) {
    // The transport delivered an answer but not a definitive one (a
    // shedding tier's REFUSED): never surface it — fall back instead.
    ++stats_.primary_shed;
    obs_.count("fallback.primary_shed");
    start_secondary(id, "primary_shed");
  } else {
    // Hard failure before the deadline: fall back immediately.
    start_secondary(id, "primary_failure");
  }
}

void FallbackResolverClient::on_late_answer(bool from_primary,
                                            const ResolutionResult& r) {
  // The fallback already won: a late definitive primary answer is wasted
  // work — count it rather than drop it. (A late shed answer is not
  // useful work, so it isn't "wasted".)
  if (from_primary && definitive(r)) {
    ++stats_.primary_wasted;
    obs_.count("fallback.primary_wasted");
  }
}

}  // namespace dohperf::core
