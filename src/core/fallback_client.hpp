// TRR-style fallback resolution: try the secure (DoH) resolver first and
// fall back to classic UDP when it fails or exceeds a deadline — the policy
// Firefox shipped for its DoH rollout ("TRR first" mode), referenced by the
// paper's related-work discussion of Mozilla's experiment. It bounds the
// user-visible cost of a misbehaving DoH service at the fallback deadline.
#pragma once

#include "core/policy_client.hpp"

namespace dohperf::core {

struct FallbackConfig {
  /// How long to wait for the primary before also asking the fallback.
  simnet::TimeUs primary_deadline = simnet::ms(1500);
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

struct FallbackStats {
  std::uint64_t primary_wins = 0;    ///< primary answered in time
  std::uint64_t fallback_used = 0;   ///< deadline hit or primary failed
  std::uint64_t both_failed = 0;
  /// Primary answered, but not definitively (definitive(): e.g. REFUSED
  /// from a shedding tier): the fallback was started instead of
  /// surfacing the answer, which would turn server load-shedding into a
  /// client outage.
  std::uint64_t primary_shed = 0;
  std::uint64_t fallback_started = 0;  ///< fallback launched (won or not)
  /// Primary reported failure only after the fallback was already racing —
  /// the slow-failure path where the deadline, not the error, decided.
  std::uint64_t primary_late_failures = 0;
  /// Primary answered successfully after the fallback had already won: the
  /// late resolution is torn down and accounted here (never surfaced), so
  /// wasted primary work is visible instead of silently dropped.
  std::uint64_t primary_wasted = 0;
  /// Time from resolve() to the decision to start the fallback, summed /
  /// maxed over fallback_started decisions. The mean bounds how much a
  /// misbehaving primary delays the user before the rescue begins.
  simnet::TimeUs decision_latency_total = 0;
  simnet::TimeUs decision_latency_max = 0;

  double mean_decision_latency_us() const {
    return fallback_started == 0
               ? 0.0
               : static_cast<double>(decision_latency_total) /
                     static_cast<double>(fallback_started);
  }
};

class FallbackResolverClient final : public RacingClient {
 public:
  /// Both clients must outlive this one.
  FallbackResolverClient(simnet::EventLoop& loop, ResolverClient& primary,
                         ResolverClient& fallback,
                         FallbackConfig config = {});

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;

  const FallbackStats& stats() const noexcept { return stats_; }

 private:
  std::optional<obs::SpanId> admit_secondary(std::uint64_t id) override;
  void on_answer(std::uint64_t id, const Race& race, bool from_primary,
                 const ResolutionResult& r) override;
  void on_late_answer(bool from_primary, const ResolutionResult& r) override;

  FallbackConfig config_;
  FallbackStats stats_;
};

}  // namespace dohperf::core
