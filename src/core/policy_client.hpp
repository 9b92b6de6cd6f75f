// The core the four policy clients share: the caching, fallback, health
// and hedging clients each answer a query with the result of an inner
// ResolverClient, and their policies (Firefox's TRR-first fallback, a
// stub's serve-stale cache, a resolver list with circuit breakers, a
// tail-at-scale hedge) decide what DoH costs a user. PolicyClient holds
// their result slots and the one path that turns an inner result into
// their own; RacingClient adds the race of a primary against a secondary
// inner client that fallback and hedging both run.
#pragma once

#include <map>
#include <optional>

#include "core/client.hpp"
#include "obs/span.hpp"
#include "simnet/event_loop.hpp"

namespace dohperf::core {

class PolicyClient : public ResolverClient {
 public:
  const ResolutionResult& result(std::uint64_t id) const final {
    return results_.at(id);
  }
  std::size_t completed() const final { return results_.completed(); }

 protected:
  PolicyClient(simnet::EventLoop& loop, const obs::SpanContext& obs)
      : loop_(loop), obs_(obs) {}

  /// Open the result slot of a new query, sent now; returns its id.
  std::uint64_t open() { return results_.open(loop_.now()); }

  /// Answer query `id` with an inner client's result: `inner` is stored
  /// in the query's slot with the slot's own sent_at (the resolution time
  /// runs from when *this* client was asked) and completed_at = now, the
  /// query counts as completed, and `callback` runs on the stored slot.
  void deliver(std::uint64_t id, ResolutionResult inner,
               ResolveCallback callback);

  simnet::EventLoop& loop_;
  obs::SpanContext obs_;  ///< tracing/metrics sink

 private:
  ResultStore results_;
};

/// A query asked of a primary and, after `delay` or on the primary's
/// failure, of a secondary too (fallback, hedging). The record lives until
/// a result was delivered *and* both sides have reported or never will, so
/// a loser's late answer is accounted (on_late_answer) instead of dropped.
class RacingClient : public PolicyClient {
 protected:
  struct Race {
    ResolveCallback callback;
    dns::Name name;
    dns::RType type = dns::RType::kA;
    simnet::EventId timer;  ///< starts the secondary after the delay
    obs::SpanId span = 0;   ///< open while the secondary races
    bool secondary_started = false;
    bool done = false;  ///< a result was delivered
    bool primary_done = false;
    bool secondary_done = false;
  };

  /// Both clients must outlive this one.
  RacingClient(simnet::EventLoop& loop, ResolverClient& primary,
               ResolverClient& secondary, const obs::SpanContext& obs)
      : PolicyClient(loop, obs), primary_(primary), secondary_(secondary) {}

  /// Open a query, arm its timer (start_secondary(id, `timer_reason`)
  /// after `delay`) and ask the primary. Returns the query id.
  std::uint64_t race(const dns::Name& name, dns::RType type,
                     ResolveCallback callback, simnet::TimeUs delay,
                     const char* timer_reason);
  /// Ask the secondary, once, if no result was delivered yet and
  /// admit_secondary() agrees; the timer is cancelled either way.
  void start_secondary(std::uint64_t id, const char* reason);
  /// Deliver `r` as query `id`'s result, once: the timer is cancelled and
  /// the secondary's span closed.
  void finish(std::uint64_t id, const ResolutionResult& r);
  /// The record of query `id`, or nullptr once it is settled.
  const Race* find(std::uint64_t id) const;

  /// Policy: may the secondary be asked now (the timer is already
  /// cancelled)? If so, opens and returns the span it runs under.
  virtual std::optional<obs::SpanId> admit_secondary(std::uint64_t id) = 0;
  /// Policy: a side reported before any result was delivered.
  virtual void on_answer(std::uint64_t id, const Race& race,
                         bool from_primary, const ResolutionResult& r) = 0;
  /// Policy: a side reported after the result was delivered.
  virtual void on_late_answer(bool from_primary,
                              const ResolutionResult& r) = 0;

 private:
  void on_result(std::uint64_t id, bool from_primary,
                 const ResolutionResult& r);
  /// Erase the record once it is done and neither side is still out.
  void settle(std::map<std::uint64_t, Race>::iterator it);

  ResolverClient& primary_;
  ResolverClient& secondary_;
  std::map<std::uint64_t, Race> races_;
};

}  // namespace dohperf::core
