// Hedged resolution, tail-at-scale style (Dean & Barroso, CACM 2013):
// a query that has not been answered after `hedge_delay` is re-issued to a
// secondary resolver, and the first answer wins. Hounsel et al. and Kosek
// et al. both locate the encrypted-DNS cost in the tail — hedging converts
// a slow or dead primary's tail into one extra round trip to the backup.
//
// A hedge-rate budget bounds the extra load: hedges are only issued while
// hedged queries stay under `hedge_budget_permille` per-mille of all
// queries started, so a degraded primary cannot double the total upstream
// query volume. The losing resolution is torn down from this client's
// perspective — its late answer is dropped and its cost is charged to a
// separate `wasted` account rather than to the query. All bookkeeping is
// integer arithmetic on the virtual clock: seeded runs are byte-identical.
#pragma once

#include "core/policy_client.hpp"

namespace dohperf::core {

struct HedgeConfig {
  /// How long to wait for the primary before hedging to the secondary.
  /// Tail-at-scale practice pins this near the primary's p95 latency.
  simnet::TimeUs hedge_delay = simnet::ms(200);
  /// Budget: hedges are issued only while
  ///   (hedges_issued + 1) * 1000 <= queries_started * hedge_budget_permille
  /// holds. 100 caps the extra upstream load at 10%; 1000 allows hedging
  /// every query (at most doubling the load).
  std::uint32_t hedge_budget_permille = 100;
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

struct HedgeStats {
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_suppressed = 0;  ///< delay hit, budget empty
  std::uint64_t primary_wins = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t both_failed = 0;
  /// The losing side answered successfully after the winner: torn down,
  /// never surfaced, its cost charged below instead of to the query.
  std::uint64_t wasted_answers = 0;
  std::uint64_t wasted_wire_bytes = 0;  ///< wire cost of those late answers
};

class HedgingResolverClient final : public RacingClient {
 public:
  /// Both clients must outlive this one.
  HedgingResolverClient(simnet::EventLoop& loop, ResolverClient& primary,
                        ResolverClient& secondary, HedgeConfig config = {});

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;

  const HedgeStats& stats() const noexcept { return stats_; }

 private:
  /// The hedge budget (see HedgeConfig::hedge_budget_permille).
  std::optional<obs::SpanId> admit_secondary(std::uint64_t id) override;
  void on_answer(std::uint64_t id, const Race& race, bool from_primary,
                 const ResolutionResult& r) override;
  void on_late_answer(bool from_primary, const ResolutionResult& r) override;

  HedgeConfig config_;
  HedgeStats stats_;
  std::uint64_t started_ = 0;  ///< resolve() calls, the budget denominator
};

}  // namespace dohperf::core
