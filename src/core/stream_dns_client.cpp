#include "core/stream_dns_client.hpp"

#include <utility>

namespace dohperf::core {

bool StreamDnsClient::Connection::live() const {
  if (!stream) return false;
  if (tls != nullptr) return !tls->failed() && !tls->closed();
  return tcp->established() || tcp->state() == simnet::TcpState::kSynSent;
}

void StreamDnsClient::Connection::drop() {
  if (tcp) tcp->abort();
  stream.reset();
  tls = nullptr;
}

StreamDnsClient::StreamDnsClient(simnet::Host& host, simnet::Address server,
                                 DotClientConfig config, bool tls)
    : host_(host),
      server_(server),
      config_(std::move(config)),
      use_tls_(tls),
      lifecycle_(
          host, config_.obs, tls ? "dot" : "tcp", config_.retry,
          config_.migration, [this]() { return !pending_.empty(); },
          [this](const char* reason) { begin_migration(reason); }) {}

StreamDnsClient::~StreamDnsClient() = default;

StreamDnsClient::Connection StreamDnsClient::open() {
  Connection c;
  c.tcp = host_.tcp_connect(server_);
  auto stream = std::make_unique<simnet::TcpByteStream>(c.tcp);
  if (!use_tls_) {
    c.stream = std::move(stream);
    return c;
  }
  tlssim::ClientConfig tls_config;
  tls_config.sni = config_.server_name;
  tls_config.min_version = config_.min_tls;
  tls_config.max_version = config_.max_tls;
  tls_config.session_cache = config_.session_cache;
  // RFC 7858 defines no mandatory ALPN token; offer none.
  auto tls = std::make_unique<tlssim::TlsConnection>(std::move(stream),
                                                     std::move(tls_config));
  c.tls = tls.get();
  c.stream = std::move(tls);
  return c;
}

void StreamDnsClient::install_handlers() {
  simnet::ByteStream::Handlers h;
  h.on_open = [this]() {
    if (tls_hs_span_ != 0 && conn_.tls != nullptr) {
      config_.obs.set_attr(tls_hs_span_, "tls_version",
                           tlssim::to_string(conn_.tls->version()));
      config_.obs.set_attr(tls_hs_span_, "resumed", conn_.tls->resumed());
    }
    // With TLS, the transport-open hook already closed tcp_handshake.
    obs::SpanId& handshake =
        conn_.tls != nullptr ? tls_hs_span_ : tcp_hs_span_;
    config_.obs.end(handshake);
    config_.obs.end(connect_span_);
    handshake = connect_span_ = 0;
    account_established();
  };
  h.on_data = [this](std::span<const std::uint8_t> d) { on_data(d); };
  h.on_close = [this]() { on_close(); };
  conn_.stream->set_handlers(std::move(h));
}

void StreamDnsClient::account_established() {
  if (conn_.tls != nullptr) lifecycle_.account_tls(*conn_.tls);
}

void StreamDnsClient::ensure_connection(obs::SpanId parent) {
  // A connection is reusable while it is open or still handshaking; one
  // that failed or whose transport closed (including RST mid-handshake)
  // must be replaced.
  if (conn_.live()) {
    lifecycle_.count(&TransportMetrics::conn_reuse);
    return;
  }
  // The main connection died while a migration race was still on: adopt
  // the racer instead of opening yet another connection.
  if (racer_.live()) {
    conn_ = std::exchange(racer_, {});
    rx_.clear();
    const bool already_open = conn_.stream->is_open();
    install_handlers();
    if (already_open) account_established();
    return;
  }
  lifecycle_.count(&TransportMetrics::conn_open);
  if (config_.obs.tracer != nullptr) {
    connect_span_ = config_.obs.tracer->begin(parent, "connect");
    tcp_hs_span_ = config_.obs.tracer->begin(connect_span_, "tcp_handshake");
  }
  conn_ = open();
  if (conn_.tls != nullptr && config_.obs.tracer != nullptr) {
    conn_.tls->set_transport_open_hook([this]() {
      config_.obs.end(tcp_hs_span_);
      tcp_hs_span_ = 0;
      tls_hs_span_ =
          config_.obs.tracer->begin(connect_span_, "tls_handshake");
    });
  }
  install_handlers();
  rx_.clear();
}

std::uint16_t StreamDnsClient::allocate_dns_id() {
  std::uint16_t dns_id = next_dns_id_++;
  while (pending_.count(dns_id) != 0 || dns_id == 0) dns_id = next_dns_id_++;
  return dns_id;
}

std::uint64_t StreamDnsClient::resolve(const dns::Name& name,
                                       dns::RType type,
                                       ResolveCallback callback) {
  const std::uint64_t query_id = next_query_id_++;

  ResolutionResult result;
  result.sent_at = host_.loop().now();
  results_.push_back(std::move(result));

  Pending pending;
  pending.query_id = query_id;
  pending.callback = std::move(callback);
  pending.name = name;
  pending.type = type;
  pending.retry.retries_left = config_.retry.max_retries;
  pending.retry.span = obs_begin_resolution(
      config_.obs, lifecycle_.metrics(), lifecycle_.transport(), name, type);
  send_query(allocate_dns_id(), std::move(pending));
  return query_id;
}

void StreamDnsClient::send_query(std::uint16_t dns_id, Pending pending) {
  ensure_connection(pending.retry.span);
  const std::uint64_t query_id = pending.query_id;
  lifecycle_.begin_request(pending.retry);

  const dns::Message query =
      dns::Message::make_query(dns_id, pending.name, pending.type);
  const dns::Bytes wire = query.encode();
  results_[query_id].cost.dns_message_bytes += wire.size();

  lifecycle_.arm_timeout(pending.retry,
                         [this, dns_id]() { on_query_timeout(dns_id); });
  pending_.emplace(dns_id, std::move(pending));

  dns::ByteWriter framed;
  framed.u16(static_cast<std::uint16_t>(wire.size()));
  framed.bytes(wire);
  lifecycle_.arm_stall();
  // Queued below until the TCP (and TLS) handshake ends.
  conn_.stream->send(framed.take());
}

void StreamDnsClient::on_data(std::span<const std::uint8_t> data) {
  // Bytes arriving means the path is alive: restart stall detection.
  lifecycle_.cancel_stall();
  rx_.insert(rx_.end(), data.begin(), data.end());
  while (rx_.size() >= 2) {
    const std::size_t len = (static_cast<std::size_t>(rx_[0]) << 8) | rx_[1];
    if (rx_.size() < 2 + len) break;
    dns::Bytes wire(rx_.begin() + 2,
                    rx_.begin() + static_cast<std::ptrdiff_t>(2 + len));
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(2 + len));

    dns::Message response;
    try {
      response = dns::Message::decode(wire);
    } catch (const dns::WireError&) {
      continue;
    }
    const auto it = pending_.find(response.id);
    if (it == pending_.end()) continue;
    Pending pending = std::move(it->second);
    pending_.erase(it);
    host_.loop().cancel(pending.retry.timeout_timer);
    lifecycle_.succeeded();

    ResolutionResult& result = results_[pending.query_id];
    result.success = true;
    result.completed_at = host_.loop().now();
    result.cost.dns_message_bytes += wire.size();
    result.response = std::move(response);
    ++completed_;
    config_.obs.end(pending.retry.request_span);
    obs_span_cost(config_.obs, pending.retry.span, result.cost);
    obs_count_cost(config_.obs, cmetrics_, result.cost);
    obs_finish_resolution(config_.obs, lifecycle_.metrics(),
                          pending.retry.span, lifecycle_.transport(), result);
    if (pending.callback) pending.callback(result);
    // A full response on the old path while racing: the stall was
    // transient, keep the connection and drop the racer.
    teardown_racer();
  }
  if (!pending_.empty()) lifecycle_.arm_stall();
}

void StreamDnsClient::on_close(ReissueCause cause, std::uint16_t suspect) {
  // Spans of a connection that died mid-handshake must not stay open.
  config_.obs.end(tcp_hs_span_);
  config_.obs.end(tls_hs_span_);
  config_.obs.end(connect_span_);
  tcp_hs_span_ = tls_hs_span_ = connect_span_ = 0;
  reissue_pending(cause, suspect);
}

void StreamDnsClient::reissue_pending(ReissueCause cause,
                                      std::uint16_t suspect) {
  std::vector<Pending> victims;
  std::size_t suspect_at = pending_.size();
  for (auto& [dns_id, entry] : pending_) {
    if (dns_id == suspect) suspect_at = victims.size();
    victims.push_back(std::move(entry));
  }
  pending_.clear();
  lifecycle_.reissue(
      victims.size(), suspect_at, cause, !closing_,
      [&](std::size_t i) -> QueryRetry& { return victims[i].retry; },
      [&](std::size_t i) { fail_query(std::move(victims[i])); },
      [&](std::size_t i, std::optional<simnet::TimeUs> delay) {
        if (!delay) {
          send_query(allocate_dns_id(), std::move(victims[i]));
          return;
        }
        host_.loop().schedule_in(
            *delay, [this, p = std::move(victims[i])]() mutable {
              send_query(allocate_dns_id(), std::move(p));
            });
      });
}

void StreamDnsClient::on_query_timeout(std::uint16_t dns_id) {
  const auto it = pending_.find(dns_id);
  if (it == pending_.end()) return;
  if (lifecycle_.timed_out(it->second.retry)) {
    // Responses are serialized on one stream (the resolver answers in
    // order), so a stalled exchange at the head of the line blocks every
    // response behind it and re-issuing on the same session cannot recover.
    // Discard the suspect connection -- as real stub resolvers discard
    // suspect TCP sessions -- and let the reconnect path re-issue every
    // pending query, this one included.
    conn_.drop();
    rx_.clear();
    on_close(ReissueCause::kTimeoutTeardown, dns_id);
    return;
  }
  Pending pending = std::move(it->second);
  pending_.erase(it);
  fail_query(std::move(pending));
}

void StreamDnsClient::fail_query(Pending pending) {
  ResolutionResult& result = results_[pending.query_id];
  result.success = false;
  result.completed_at = host_.loop().now();
  ++completed_;
  config_.obs.end(pending.retry.request_span);
  obs_span_cost(config_.obs, pending.retry.span, result.cost);
  obs_count_cost(config_.obs, cmetrics_, result.cost);
  obs_finish_resolution(config_.obs, lifecycle_.metrics(), pending.retry.span,
                        lifecycle_.transport(), result);
  if (pending.callback) pending.callback(result);
}

void StreamDnsClient::begin_migration(const char* reason) {
  if (!config_.migration.enabled || closing_) return;
  if (racer_.stream) return;  // a race is already deciding the new path
  if (!conn_.stream && pending_.empty()) return;  // nothing to migrate
  lifecycle_.begin_migrate(reason);
  if (!conn_.live() || pending_.empty() || !config_.migration.race) {
    // Nothing worth racing against: drop the (suspect or already dead)
    // connection so the next attempt reconnects on the new path, resuming
    // via the session cache when one is configured.
    conn_.drop();
    rx_.clear();
    lifecycle_.record_migration();
    lifecycle_.end_migrate("fresh");
    if (!pending_.empty()) on_close();  // reconnect + re-issue in flight
    return;
  }
  // Happy-eyeballs: open a fresh connection and race it against the
  // stalled one. Whichever proves the path first wins; the loser's bytes
  // are charged to migration_wasted_bytes.
  lifecycle_.count(&TransportMetrics::conn_open);
  const auto& tc = conn_.tcp->counters();
  race_baseline_bytes_ = tc.wire_bytes_sent + tc.wire_bytes_received;
  racer_ = open();
  simnet::ByteStream::Handlers rh;
  // Both outcomes defer one (zero-delay) event: the handlers below must
  // not destroy the std::function currently executing.
  rh.on_open = [this]() {
    host_.loop().schedule_in(0, [this]() { promote_racer(); });
  };
  rh.on_close = [this]() {
    host_.loop().schedule_in(0, [this]() {
      if (racer_.stream && !racer_.live()) teardown_racer();
    });
  };
  racer_.stream->set_handlers(std::move(rh));
}

void StreamDnsClient::promote_racer() {
  if (!racer_.stream || !racer_.stream->is_open()) {
    return;  // adopted, torn down, or died before this event fired
  }
  // The fresh path won. Everything the stalled connection moved since the
  // race began bought nothing — charge it as migration waste.
  std::uint64_t wasted = 0;
  if (conn_.tcp) {
    const auto& c = conn_.tcp->counters();
    wasted = c.wire_bytes_sent + c.wire_bytes_received - race_baseline_bytes_;
  }
  lifecycle_.record_wasted(wasted);
  lifecycle_.record_migration();
  conn_.drop();
  conn_ = std::exchange(racer_, {});
  rx_.clear();
  install_handlers();
  account_established();
  lifecycle_.end_migrate("fresh");
  // In-flight queries move to the validated new path immediately — no
  // backoff, the path is known good — each charged one retry.
  reissue_pending(ReissueCause::kMigration);
}

void StreamDnsClient::teardown_racer() {
  if (!racer_.stream) return;
  std::uint64_t wasted = 0;
  if (racer_.tcp) {
    racer_.tcp->abort();
    const auto& c = racer_.tcp->counters();
    wasted = c.wire_bytes_sent + c.wire_bytes_received;
  }
  lifecycle_.record_wasted(wasted);
  racer_ = Connection{};
  lifecycle_.end_migrate("old");
}

void StreamDnsClient::disconnect() {
  if (!conn_.stream) return;
  closing_ = true;
  conn_.stream->close();
  closing_ = false;
}

bool StreamDnsClient::connected() const {
  return conn_.stream && conn_.stream->is_open();
}

const tlssim::TlsCounters* StreamDnsClient::tls_counters() const {
  return conn_.tls != nullptr ? &conn_.tls->counters() : nullptr;
}

const simnet::TcpCounters* StreamDnsClient::tcp_counters() const {
  return conn_.tcp ? &conn_.tcp->counters() : nullptr;
}

const ResolutionResult& StreamDnsClient::result(std::uint64_t id) const {
  return results_.at(id);
}

}  // namespace dohperf::core
