#include "core/hedging_client.hpp"

#include <string>

namespace dohperf::core {

HedgingResolverClient::HedgingResolverClient(simnet::EventLoop& loop,
                                             ResolverClient& primary,
                                             ResolverClient& secondary,
                                             HedgeConfig config)
    : RacingClient(loop, primary, secondary, config.obs),
      config_(config) {}

std::uint64_t HedgingResolverClient::resolve(const dns::Name& name,
                                             dns::RType type,
                                             ResolveCallback callback) {
  ++started_;
  return race(name, type, std::move(callback), config_.hedge_delay, "delay");
}

std::optional<obs::SpanId> HedgingResolverClient::admit_secondary(
    std::uint64_t /*id*/) {
  // The budget is a per-mille cap over all queries started, so a degraded
  // primary cannot multiply upstream load past 1 + permille/1000.
  if ((stats_.hedges_issued + 1) * 1000 >
      started_ * config_.hedge_budget_permille) {
    ++stats_.hedges_suppressed;
    obs_.count("hedge.suppressed");
    return std::nullopt;
  }
  ++stats_.hedges_issued;
  obs_.count("hedge.issued");
  return obs_.begin("hedge");
}

void HedgingResolverClient::on_answer(std::uint64_t id, const Race& race,
                                      bool from_primary,
                                      const ResolutionResult& r) {
  if (definitive(r)) {
    if (from_primary) {
      ++stats_.primary_wins;
      obs_.count("hedge.primary_wins");
    } else {
      ++stats_.hedge_wins;
      obs_.count("hedge.wins");
    }
    obs_.set_attr(race.span, "winner",
                  std::string(from_primary ? "primary" : "secondary"));
    finish(id, r);
    return;
  }

  if (from_primary && !race.secondary_started) {
    // The primary failed before the hedge delay: hedge immediately
    // (budget permitting) instead of sitting out the rest of the delay.
    start_secondary(id, "primary_failure");
    const Race* hedged = find(id);
    if (hedged == nullptr || hedged->secondary_started) return;
  } else {
    const bool other_racing =
        from_primary ? !race.secondary_done : !race.primary_done;
    if (other_racing) return;  // the other side may still rescue the query
  }
  ++stats_.both_failed;
  obs_.count("hedge.both_failed");
  finish(id, r);
}

void HedgingResolverClient::on_late_answer(bool /*from_primary*/,
                                           const ResolutionResult& r) {
  // The loser reporting after the winner: a late definitive answer is pure
  // waste — count it and charge its cost separately, never to the query.
  if (!definitive(r)) return;
  ++stats_.wasted_answers;
  stats_.wasted_wire_bytes += r.cost.wire_bytes;
  obs_.count("hedge.wasted_answers");
  obs_.count("hedge.wasted_wire_bytes", r.cost.wire_bytes);
}

}  // namespace dohperf::core
