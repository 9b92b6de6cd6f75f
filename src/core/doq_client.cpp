#include "core/doq_client.hpp"

namespace dohperf::core {

DoqClient::DoqClient(simnet::Host& host, simnet::Address server,
                     DoqClientConfig config)
    : host_(host),
      server_(server),
      config_(std::move(config)),
      ledger_(host.loop(), config_.obs, "doq", config_.retry.max_retries),
      lifecycle_(
          host, ledger_, config_.retry, config_.migration,
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
  endpoint_->connection().set_on_closed([this]() {
    spans_.abandon(config_.obs);
    // Re-issues are deferred behind a backoff delay, so the replacement
    // endpoint is never built inside this (dying) connection's callback.
    reissue(ReissueCause::kConnectionLoss);
  });
  endpoint_->connection().set_on_path_validated([this]() {
    // The path survived the address change: migration complete, no new
    // handshake paid.
    lifecycle_.record_migration();
    lifecycle_.end_migrate("same_connection");
  });
}

std::uint64_t DoqClient::resolve(const dns::Name& name, dns::RType type,
                                 ResolveCallback callback) {
  Pending pending;
  const std::uint64_t query_id =
      ledger_.open(pending, name, type, std::move(callback));
  issue(std::move(pending));
  return query_id;
}

void DoqClient::issue(Pending pending) {
  ensure_connection(pending.retry.span);
  // RFC 9250 §4.2: queries use DNS message ID 0; the stream correlates.
  const dns::Bytes wire =
      dns::Message::make_query(0, pending.name, pending.type).encode();
  ledger_.result(pending.id).cost.dns_message_bytes += wire.size();

  dns::ByteWriter framed;
  framed.u16(static_cast<std::uint16_t>(wire.size()));
  framed.bytes(wire);

  auto& conn = endpoint_->connection();
  const std::uint64_t stream_id = conn.open_stream();
  ledger_.begin_request(pending.retry, static_cast<std::int64_t>(stream_id));
  pending.rx.clear();
  lifecycle_.arm_timeout(pending.retry, [this, stream_id]() {
    lifecycle_.query_timeout(pending_, stream_id, [this](std::uint64_t id) {
      // QUIC's PTO machinery already retries within the connection, so a
      // query timeout means the path (or the server's view of our
      // address) is dead. Discard the endpoint and re-issue everything in
      // flight; the suspect is charged and goes last.
      endpoint_.reset();  // dropped, not closed: the path may be dead anyway
      reissue(ReissueCause::kTimeoutTeardown, id);
    });
  });
  pending_.emplace(stream_id, std::move(pending));
  lifecycle_.arm_stall();
  conn.send_stream(stream_id, framed.take(), /*fin=*/true);
}

void DoqClient::on_stream_data(std::uint64_t stream_id,
                               std::span<const std::uint8_t> data, bool fin) {
  // Bytes arriving means the path is alive: restart stall detection.
  lifecycle_.cancel_stall();
  const auto it = pending_.find(stream_id);
  if (it == pending_.end()) return;
  it->second.rx.insert(it->second.rx.end(), data.begin(), data.end());
  if (!fin) {  // the response ends with the stream
    lifecycle_.arm_stall();
    return;
  }

  Pending pending = std::move(it->second);
  pending_.erase(it);
  lifecycle_.succeeded();
  const dns::Bytes& rx = pending.rx;
  const std::size_t len =
      rx.size() >= 2 ? (static_cast<std::size_t>(rx[0]) << 8) | rx[1] : 0;
  dns::Message response;
  bool success = false;
  if (rx.size() >= 2 + len) {
    try {
      response = dns::Message::decode(std::span(rx.data() + 2, len));
      success = true;
    } catch (const dns::WireError&) {
    }
  }
  ledger_.finish(pending, success, std::move(response), len);
  if (!pending_.empty()) lifecycle_.arm_stall();
}

void DoqClient::reissue(ReissueCause cause, std::uint64_t suspect) {
  lifecycle_.cancel_stall();
  lifecycle_.reissue_all(pending_, cause, suspect, !closing_,
                         [this](Pending pending) {
                           issue(std::move(pending));
                         });
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

const quicsim::QuicCounters* DoqClient::quic_counters() const {
  return endpoint_ ? &endpoint_->connection().counters() : nullptr;
}

}  // namespace dohperf::core
