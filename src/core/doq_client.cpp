#include "core/doq_client.hpp"

#include "core/obs_hooks.hpp"

namespace dohperf::core {

DoqClient::DoqClient(simnet::Host& host, simnet::Address server,
                     DoqClientConfig config)
    : host_(host),
      server_(server),
      config_(std::move(config)),
      lifecycle_(
          host, config_.obs, "doq", config_.retry, config_.migration,
          [this]() { return !pending_.empty(); },
          [this](const char* reason) { begin_migration(reason); }) {}

DoqClient::~DoqClient() = default;

void DoqClient::ensure_connection(obs::SpanId parent) {
  if (endpoint_ && !endpoint_->connection().closed()) {
    lifecycle_.count(&TransportMetrics::conn_reuse);
    return;
  }
  lifecycle_.count(&TransportMetrics::conn_open);
  spans_.begin(config_.obs, parent, "quic_handshake");
  tlssim::ClientConfig tls;
  tls.sni = config_.server_name;
  tls.alpn = {"doq"};
  endpoint_ = std::make_unique<quicsim::QuicClientEndpoint>(
      host_, server_, std::move(tls), config_.quic);
  endpoint_->connection().set_on_established([this]() {
    spans_.established(config_.obs, nullptr);
    // quicsim models no 0-RTT resumption: every handshake is a full one,
    // one combined transport+crypto round trip (QUIC's selling point).
    lifecycle_.account_handshake(
        false, endpoint_->connection().counters().handshake_bytes, 1);
  });
  endpoint_->connection().set_on_stream_data(
      [this](std::uint64_t stream_id, std::span<const std::uint8_t> data,
             bool fin) { on_stream_data(stream_id, data, fin); });
  endpoint_->connection().set_on_closed([this]() { on_closed(); });
  endpoint_->connection().set_on_path_validated([this]() {
    // The path survived the address change: migration complete, no new
    // handshake paid.
    lifecycle_.record_migration();
    lifecycle_.end_migrate("same_connection");
  });
}

std::uint64_t DoqClient::resolve(const dns::Name& name, dns::RType type,
                                 ResolveCallback callback) {
  const std::uint64_t query_id = next_query_id_++;
  const obs::SpanId span = obs_begin_resolution(
      config_.obs, lifecycle_.metrics(), "doq", name, type);
  ResolutionResult result;
  result.sent_at = host_.loop().now();
  results_.push_back(std::move(result));

  PendingQuery pq;
  pq.query_id = query_id;
  pq.callback = std::move(callback);
  pq.name = name;
  pq.type = type;
  pq.retry.retries_left = config_.retry.max_retries;
  pq.retry.span = span;
  issue(std::move(pq));
  return query_id;
}

void DoqClient::issue(PendingQuery pq) {
  ensure_connection(pq.retry.span);
  // RFC 9250 §4.2: queries use DNS message ID 0; the stream correlates.
  const dns::Message query = dns::Message::make_query(0, pq.name, pq.type);
  const dns::Bytes wire = query.encode();
  results_[pq.query_id].cost.dns_message_bytes += wire.size();

  dns::ByteWriter framed;
  framed.u16(static_cast<std::uint16_t>(wire.size()));
  framed.bytes(wire);

  auto& conn = endpoint_->connection();
  const std::uint64_t stream_id = conn.open_stream();
  lifecycle_.begin_request(pq.retry, static_cast<std::int64_t>(stream_id));
  pq.rx.clear();
  lifecycle_.arm_timeout(pq.retry,
                         [this, stream_id]() { on_query_timeout(stream_id); });
  pending_.emplace(stream_id, std::move(pq));
  lifecycle_.arm_stall();
  conn.send_stream(stream_id, framed.take(), /*fin=*/true);
}

void DoqClient::on_stream_data(std::uint64_t stream_id,
                               std::span<const std::uint8_t> data, bool fin) {
  // Bytes arriving means the path is alive: restart stall detection.
  lifecycle_.cancel_stall();
  const auto it = pending_.find(stream_id);
  if (it == pending_.end()) return;
  PendingQuery& pq = it->second;
  pq.rx.insert(pq.rx.end(), data.begin(), data.end());
  if (!fin) {  // the response ends with the stream
    if (!pending_.empty()) lifecycle_.arm_stall();
    return;
  }

  host_.loop().cancel(pq.retry.timeout_timer);
  lifecycle_.succeeded();
  ResolutionResult& result = results_[pq.query_id];
  result.completed_at = host_.loop().now();
  if (pq.rx.size() >= 2) {
    const std::size_t len =
        (static_cast<std::size_t>(pq.rx[0]) << 8) | pq.rx[1];
    if (pq.rx.size() >= 2 + len) {
      try {
        result.response = dns::Message::decode(
            std::span(pq.rx.data() + 2, len));
        result.success = true;
        result.cost.dns_message_bytes += len;
      } catch (const dns::WireError&) {
        result.success = false;
      }
    }
  }
  ++completed_;
  auto callback = std::move(pq.callback);
  config_.obs.end(pq.retry.request_span);
  obs_span_cost(config_.obs, pq.retry.span, result.cost);
  obs_count_cost(config_.obs, cmetrics_, result.cost);
  obs_finish_resolution(config_.obs, lifecycle_.metrics(), pq.retry.span,
                        "doq", result);
  pending_.erase(it);
  if (callback) callback(result);
  if (!pending_.empty()) lifecycle_.arm_stall();
}

void DoqClient::on_closed() {
  spans_.abandon(config_.obs);
  // Re-issues are deferred behind a backoff delay, so the replacement
  // endpoint is never built inside this (dying) connection's callback.
  group_reissue(ReissueCause::kConnectionLoss);
}

void DoqClient::on_query_timeout(std::uint64_t stream_id) {
  const auto it = pending_.find(stream_id);
  if (it == pending_.end()) return;
  if (lifecycle_.timed_out(it->second.retry)) {
    // QUIC's PTO machinery already retries within the connection, so a
    // query timeout means the path (or the server's view of our address)
    // is dead. Discard the endpoint and re-issue everything in flight; the
    // suspect is charged and goes last.
    endpoint_.reset();  // dropped, not closed: the path may be dead anyway
    group_reissue(ReissueCause::kTimeoutTeardown, stream_id);
    return;
  }
  PendingQuery pq = std::move(it->second);
  pending_.erase(it);
  fail_query(std::move(pq));
}

void DoqClient::group_reissue(ReissueCause cause, std::uint64_t suspect) {
  lifecycle_.cancel_stall();
  std::vector<PendingQuery> victims;
  std::size_t suspect_at = pending_.size();
  for (auto& [stream_id, pq] : pending_) {
    if (cause == ReissueCause::kTimeoutTeardown && stream_id == suspect) {
      suspect_at = victims.size();
    }
    victims.push_back(std::move(pq));
  }
  pending_.clear();
  lifecycle_.reissue(
      victims.size(), suspect_at, cause, !closing_,
      [&](std::size_t i) -> QueryRetry& { return victims[i].retry; },
      [&](std::size_t i) { fail_query(std::move(victims[i])); },
      [&](std::size_t i, std::optional<simnet::TimeUs> delay) {
        host_.loop().schedule_in(
            delay.value_or(0), [this, p = std::move(victims[i])]() mutable {
              issue(std::move(p));
            });
      });
}

void DoqClient::fail_query(PendingQuery pq) {
  ResolutionResult& result = results_[pq.query_id];
  result.success = false;
  result.completed_at = host_.loop().now();
  ++completed_;
  config_.obs.end(pq.retry.request_span);
  obs_finish_resolution(config_.obs, lifecycle_.metrics(), pq.retry.span,
                        "doq", result);
  if (pq.callback) pq.callback(result);
}

void DoqClient::begin_migration(const char* reason) {
  if (!endpoint_ || endpoint_->connection().closed() ||
      !endpoint_->connection().established()) {
    return;  // nothing to migrate; the retry path handles reconnects
  }
  lifecycle_.begin_migrate(reason);
  // QUIC migrates in place: probe the path from the (new) address. The
  // probe datagram itself teaches a migration-capable server our new
  // address; the matching PATH_RESPONSE completes the migration.
  endpoint_->connection().probe_path();
}

void DoqClient::disconnect() {
  if (!endpoint_) return;
  closing_ = true;
  endpoint_->connection().close();
  closing_ = false;
}

bool DoqClient::connected() const {
  return endpoint_ && endpoint_->connection().established() &&
         !endpoint_->connection().closed();
}

const quicsim::QuicCounters* DoqClient::quic_counters() const {
  return endpoint_ ? &endpoint_->connection().counters() : nullptr;
}

const ResolutionResult& DoqClient::result(std::uint64_t id) const {
  return results_.at(id);
}

}  // namespace dohperf::core
