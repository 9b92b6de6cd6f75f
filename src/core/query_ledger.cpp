#include "core/query_ledger.hpp"

#include <utility>

namespace dohperf::core {

QueryLedger::QueryLedger(simnet::EventLoop& loop, const obs::SpanContext& obs,
                         std::string transport, int max_retries,
                         bool charge_on_finish)
    : loop_(loop),
      obs_(obs),
      transport_(std::move(transport)),
      max_retries_(max_retries),
      charge_on_finish_(charge_on_finish) {}

std::uint64_t QueryLedger::open(Query& q, const dns::Name& name,
                                dns::RType type, ResolveCallback callback) {
  q.id = results_.open(loop_.now());
  q.callback = std::move(callback);
  q.name = name;
  q.type = type;
  q.retry.retries_left = max_retries_;
  q.retry.span = obs_begin_resolution(obs_, metrics_, transport_, name, type);
  return q.id;
}

void QueryLedger::begin_request(QueryRetry& q,
                                std::optional<std::int64_t> stream_id) {
  ++q.attempt;
  if (q.span == 0) return;
  q.request_span = obs_.tracer->begin(q.span, "request");
  if (stream_id) obs_.set_attr(q.request_span, "stream_id", *stream_id);
  obs_.set_attr(q.request_span, "attempt",
                static_cast<std::int64_t>(q.attempt));
}

void QueryLedger::record_retry(QueryRetry& q, const char* reason) {
  obs_.end(q.request_span);
  q.request_span = 0;
  if (q.span != 0) {
    const obs::SpanId span = obs_.tracer->begin(q.span, "retry");
    obs_.set_attr(span, "reason", std::string(reason));
    obs_.set_attr(span, "attempt", static_cast<std::int64_t>(q.attempt));
    obs_.end(span);
  }
  count(&TransportMetrics::retries);
}

void QueryLedger::finish(Query& q, bool success, dns::Message response,
                         std::size_t response_bytes) {
  loop_.cancel(q.retry.timeout_timer);
  ResolutionResult& result = results_.at(q.id);
  result.success = success;
  result.completed_at = loop_.now();
  if (success) {
    result.cost.dns_message_bytes += response_bytes;
    result.response = std::move(response);
  }
  results_.mark_completed();
  obs_.end(q.retry.request_span);
  q.retry.request_span = 0;
  if (charge_on_finish_) charge(q.retry.span, result.cost);
  obs_finish_resolution(obs_, metrics_, q.retry.span, transport_, result);
  // Moved out first: the callback may open queries, and with them move
  // the record `q` lives in.
  const ResolveCallback callback = std::move(q.callback);
  if (callback) callback(result);
}

void QueryLedger::charge(obs::SpanId span, const CostReport& cost) {
  obs_span_cost(obs_, span, cost);
  obs_count_cost(obs_, cost_metrics_, cost);
}

}  // namespace dohperf::core
