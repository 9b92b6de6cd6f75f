// The query ledger every resolver client keeps (UDP, the TCP/DoT stream
// client, DoH, DoQ): the result slot of each query, the completed count,
// the `resolution` and `request` spans, and the client.<t>.* and bytes.*
// metric handles. A client opens each query here, keeps the Query record
// in its own in-flight table under its own key (DNS message ID, QUIC stream
// id, query id) next to its framing state, and finishes it here. So every
// transport opens, times, charges and closes a resolution through the same
// code, in the same order — the precondition for comparing their
// resolution times (§3) and costs (§4). Re-issuing is ConnectionLifecycle's
// (core/lifecycle.hpp); UDP retransmits through record_retry().
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/client.hpp"
#include "core/obs_hooks.hpp"
#include "simnet/event_loop.hpp"

namespace dohperf::core {

/// Retry and tracing state of one query.
struct QueryRetry {
  int retries_left = 0;
  int attempt = 0;  ///< attempts issued so far
  simnet::EventId timeout_timer;
  obs::SpanId span = 0;          ///< the resolution span
  obs::SpanId request_span = 0;  ///< the current attempt
};

/// One query in flight: what finishing it needs and what re-issuing it
/// needs. Clients keep it, or a record derived from it, in their own
/// in-flight table.
struct Query {
  std::uint64_t id = 0;  ///< the query id resolve() returned
  ResolveCallback callback;
  dns::Name name;
  dns::RType type = dns::RType::kA;
  QueryRetry retry;
};

/// The id of no query (e.g. no suspect in a re-issue).
inline constexpr std::uint64_t kNoQuery = ~std::uint64_t{0};

class QueryLedger {
 public:
  /// `obs` belongs to the owning client's config and must outlive this
  /// object; the client may rebind it. `max_retries` is each query's retry
  /// budget. With `charge_on_finish` false the client puts each cost on
  /// the wire accounts itself, through charge(), once it is final.
  QueryLedger(simnet::EventLoop& loop, const obs::SpanContext& obs,
              std::string transport, int max_retries,
              bool charge_on_finish = true);

  const obs::SpanContext& obs() const noexcept { return obs_; }
  const std::string& transport() const noexcept { return transport_; }
  /// Add `delta` to one client.<t>.* counter.
  void count(obs::MetricId TransportMetrics::*counter,
             std::uint64_t delta = 1) {
    obs_count(obs_, metrics_, transport_, counter, delta);
  }

  /// Open a query into `q`: its id and result slot (sent now), its retry
  /// budget, its `resolution` span and client.<t>.queries. Returns its id.
  std::uint64_t open(Query& q, const dns::Name& name, dns::RType type,
                     ResolveCallback callback);
  /// Open the next attempt's `request` span (attempt=, and stream_id= when
  /// given).
  void begin_request(QueryRetry& q,
                     std::optional<std::int64_t> stream_id = std::nullopt);
  /// The current attempt is given up for another: its `request` span
  /// closes, a `retry` span (reason=, attempt=) is recorded and
  /// client.<t>.retries counts it.
  void record_retry(QueryRetry& q, const char* reason);

  /// Finish a query, in this order: its deadline is cancelled; its result
  /// (success, completed_at and, on success, the response and its DNS
  /// bytes); its `request` span ends; its cost goes onto the resolution
  /// span and into bytes.* (unless charged later); the outcome counters
  /// and the resolution span close; its callback runs.
  void finish(Query& q, bool success, dns::Message response = {},
              std::size_t response_bytes = 0);
  void fail(Query& q) { finish(q, false); }
  /// Put a final cost onto a resolution span and into bytes.*.
  void charge(obs::SpanId span, const CostReport& cost);

  ResolutionResult& result(std::uint64_t id) { return results_.at(id); }
  const ResolutionResult& result(std::uint64_t id) const {
    return results_.at(id);
  }
  std::size_t completed() const noexcept { return results_.completed(); }

 private:
  simnet::EventLoop& loop_;
  const obs::SpanContext& obs_;
  std::string transport_;
  int max_retries_;
  bool charge_on_finish_;
  TransportMetrics metrics_;
  CostMetrics cost_metrics_;
  ResultStore results_;
};

}  // namespace dohperf::core
