// Shared retry/reconnect policy for the connection-oriented resolver
// clients (DoT, DoH, DoQ; plain DNS over TCP runs the default fail-fast
// policy): exponential backoff with deterministic jitter, plus a per-query
// retry budget. ConnectionLifecycle (core/lifecycle.hpp) applies it. Kosek et al. (DoQ) and Mozilla's TRR both show
// that *recovery* behaviour, not steady-state latency, decides whether an
// encrypted transport is usable on a flaky path — this policy is what the
// chaos experiments exercise.
#pragma once

#include <cstdint>

#include "simnet/time.hpp"
#include "stats/rng.hpp"

namespace dohperf::core {

struct RetryPolicy {
  /// Re-issues allowed per query after a transport loss or timeout; 0
  /// reproduces the old fail-fast behaviour.
  int max_retries = 0;
  simnet::TimeUs backoff_initial = simnet::ms(100);  ///< first reconnect wait
  simnet::TimeUs backoff_max = simnet::seconds(5);
  double backoff_multiplier = 2.0;
  /// Uniform jitter fraction: a delay d becomes d * (1 ± jitter). Seeded,
  /// so runs stay bit-for-bit reproducible.
  double jitter = 0.2;
  /// Fail (and possibly retry) a query not answered within this time;
  /// 0 disables. Guards against accept-then-never-answer servers.
  simnet::TimeUs query_timeout = 0;
  std::uint64_t seed = 0x5eed;
};

/// Tracks consecutive connection failures and produces the jittered,
/// exponentially growing reconnect delays.
class Backoff {
 public:
  explicit Backoff(const RetryPolicy& policy)
      : policy_(policy), rng_(policy.seed) {}

  /// Delay before the next reconnect attempt; each call grows the base
  /// geometrically up to backoff_max.
  simnet::TimeUs next() {
    double base = static_cast<double>(policy_.backoff_initial);
    for (int i = 0; i < failures_; ++i) base *= policy_.backoff_multiplier;
    const double cap = static_cast<double>(policy_.backoff_max);
    if (base > cap) base = cap;
    ++failures_;
    const double u = rng_.next_double();  // [0, 1)
    const double jittered = base * (1.0 - policy_.jitter +
                                    2.0 * policy_.jitter * u);
    return static_cast<simnet::TimeUs>(jittered);
  }

  /// Call on any successful exchange: the next failure starts small again.
  void reset() noexcept { failures_ = 0; }

  int consecutive_failures() const noexcept { return failures_; }

 private:
  RetryPolicy policy_;
  stats::SplitMix64 rng_;
  int failures_ = 0;
};

/// Counters the chaos harness reports per client.
struct RetryStats {
  std::uint64_t reconnects = 0;        ///< replacement connections opened
  std::uint64_t retried_queries = 0;   ///< re-issues (loss- or timeout-driven)
  std::uint64_t budget_exhausted = 0;  ///< queries failed out of retries
  std::uint64_t query_timeouts = 0;    ///< per-query deadline expiries
};

}  // namespace dohperf::core
