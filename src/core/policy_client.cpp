#include "core/policy_client.hpp"

#include <string>
#include <utility>

namespace dohperf::core {

void PolicyClient::deliver(std::uint64_t id, ResolutionResult inner,
                           ResolveCallback callback) {
  ResolutionResult& slot = results_.at(id);
  inner.sent_at = slot.sent_at;
  inner.completed_at = loop_.now();
  slot = std::move(inner);
  results_.mark_completed();
  if (callback) callback(slot);
}

std::uint64_t RacingClient::race(const dns::Name& name, dns::RType type,
                                 ResolveCallback callback,
                                 simnet::TimeUs delay,
                                 const char* timer_reason) {
  const std::uint64_t id = open();
  Race& race = races_[id];
  race.callback = std::move(callback);
  race.name = name;
  race.type = type;
  race.timer = loop_.schedule_in(delay, [this, id, timer_reason]() {
    start_secondary(id, timer_reason);
  });
  primary_.resolve(name, type, [this, id](const ResolutionResult& r) {
    on_result(id, /*from_primary=*/true, r);
  });
  return id;
}

void RacingClient::start_secondary(std::uint64_t id, const char* reason) {
  const auto it = races_.find(id);
  if (it == races_.end() || it->second.done ||
      it->second.secondary_started) {
    return;
  }
  Race& race = it->second;
  loop_.cancel(race.timer);
  const std::optional<obs::SpanId> span = admit_secondary(id);
  if (!span) return;
  race.secondary_started = true;
  race.span = *span;
  obs_.set_attr(race.span, "reason", std::string(reason));
  secondary_.resolve(race.name, race.type,
                     [this, id](const ResolutionResult& r) {
                       on_result(id, /*from_primary=*/false, r);
                     });
}

void RacingClient::on_result(std::uint64_t id, bool from_primary,
                             const ResolutionResult& r) {
  const auto it = races_.find(id);
  if (it == races_.end()) return;
  Race& race = it->second;
  (from_primary ? race.primary_done : race.secondary_done) = true;
  if (race.done) {
    on_late_answer(from_primary, r);
    settle(it);
    return;
  }
  on_answer(id, race, from_primary, r);
}

void RacingClient::finish(std::uint64_t id, const ResolutionResult& r) {
  const auto it = races_.find(id);
  if (it == races_.end() || it->second.done) return;
  Race& race = it->second;
  race.done = true;
  loop_.cancel(race.timer);
  obs_.end(race.span);
  ResolveCallback callback = std::move(race.callback);
  settle(it);
  deliver(id, r, std::move(callback));
}

const RacingClient::Race* RacingClient::find(std::uint64_t id) const {
  const auto it = races_.find(id);
  return it == races_.end() ? nullptr : &it->second;
}

void RacingClient::settle(std::map<std::uint64_t, Race>::iterator it) {
  const Race& race = it->second;
  const bool secondary_settled = !race.secondary_started || race.secondary_done;
  if (race.done && race.primary_done && secondary_settled) races_.erase(it);
}

}  // namespace dohperf::core
