#include "core/stream_dns_client.hpp"

#include <utility>

namespace dohperf::core {

StreamDnsClient::StreamDnsClient(simnet::Host& host, simnet::Address server,
                                 DotClientConfig config, bool tls)
    : host_(host),
      server_(server),
      config_(std::move(config)),
      use_tls_(tls),
      lifecycle_(
          host, config_.obs, tls ? "dot" : "tcp", config_.retry,
          config_.migration, [this]() { return !pending_.empty(); },
          [this](const char* reason) {
            race_.migrate(reason, !pending_.empty());
          }),
      race_(lifecycle_, host.loop(), *this) {}

StreamDnsClient::~StreamDnsClient() = default;

StreamDnsClient::Connection StreamDnsClient::open_connection(
    obs::SpanId parent) {
  Connection c;
  c.serial = next_serial_++;
  c.spans.begin(config_.obs, parent, "tcp_handshake");
  c.tcp = host_.tcp_connect(server_);
  auto stream = std::make_unique<simnet::TcpByteStream>(c.tcp);
  if (use_tls_) {
    tlssim::ClientConfig tls_config;
    tls_config.sni = config_.server_name;
    tls_config.min_version = config_.min_tls;
    tls_config.max_version = config_.max_tls;
    tls_config.session_cache = config_.session_cache;
    // RFC 7858 defines no mandatory ALPN token; offer none.
    auto tls = std::make_unique<tlssim::TlsConnection>(std::move(stream),
                                                       std::move(tls_config));
    if (config_.obs.tracer != nullptr) {
      tls->set_transport_open_hook([this, serial = c.serial]() {
        if (Connection* conn = find(serial)) {
          conn->spans.transport_open(config_.obs);
        }
      });
    }
    tls->set_established_hook(
        [this, serial = c.serial]() { on_established(serial); });
    c.tls = tls.get();
    c.stream = std::move(tls);
  } else {
    c.stream = std::move(stream);
  }
  simnet::ByteStream::Handlers h;
  // With TLS the established hook reports the end of setup.
  if (!use_tls_) {
    h.on_open = [this, serial = c.serial]() { on_established(serial); };
  }
  h.on_data = [this, serial = c.serial](std::span<const std::uint8_t> d) {
    if (race_.current().serial == serial) on_data(d);
  };
  h.on_close = [this, serial = c.serial]() {
    if (race_.current().serial == serial) {
      race_.current().spans.abandon(config_.obs);
      reissue_from(race_.current(), ReissueCause::kConnectionLoss);
    } else if (race_.racer().serial == serial) {
      race_.racer_failed();
    }
  };
  c.stream->set_handlers(std::move(h));
  return c;
}

bool StreamDnsClient::live(const Connection& c) {
  if (!c.stream) return false;
  if (c.tls != nullptr) return !c.tls->failed() && !c.tls->closed();
  return c.tcp->established() || c.tcp->state() == simnet::TcpState::kSynSent;
}

std::uint64_t StreamDnsClient::wire_bytes(const Connection& c) {
  return c.tcp ? c.tcp->counters().total_wire_bytes() : 0;
}

void StreamDnsClient::abort_connection(Connection& c) {
  c.spans.abandon(config_.obs);
  if (c.tcp) c.tcp->abort();
  c.stream.reset();
  c.tls = nullptr;
}

StreamDnsClient::Connection* StreamDnsClient::find(std::uint64_t serial) {
  if (race_.current().serial == serial) return &race_.current();
  if (race_.racer().serial == serial) return &race_.racer();
  return nullptr;
}

void StreamDnsClient::on_established(std::uint64_t serial) {
  Connection* c = find(serial);
  if (c == nullptr) return;
  c->spans.established(config_.obs, c->tls);
  if (c->tls == nullptr) return;
  lifecycle_.account_tls(*c->tls);
  if (c != &race_.current()) race_.racer_established();
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
  Connection& conn = race_.acquire(pending.retry.span);
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
  conn.stream->send(framed.take());
}

void StreamDnsClient::on_data(std::span<const std::uint8_t> data) {
  // Bytes arriving means the path is alive: restart stall detection.
  lifecycle_.cancel_stall();
  if (rx_of_ != race_.current().serial) {
    // The first bytes of a new connection: what the last one left
    // unframed is void.
    rx_.clear();
    rx_of_ = race_.current().serial;
  }
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
    race_.drop_racer();  // the old path answered
  }
  if (!pending_.empty()) lifecycle_.arm_stall();
}

void StreamDnsClient::reissue_from(const Connection&, ReissueCause cause,
                                   std::uint16_t suspect) {
  // Every query in flight ran on the one current connection.
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
    abort_connection(race_.current());
    reissue_from(race_.current(), ReissueCause::kTimeoutTeardown, dns_id);
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

void StreamDnsClient::disconnect() {
  if (!race_.current()) return;
  closing_ = true;
  race_.current().stream->close();
  closing_ = false;
}

const tlssim::TlsCounters* StreamDnsClient::tls_counters() const {
  const tlssim::TlsConnection* tls = race_.current().tls;
  return tls != nullptr ? &tls->counters() : nullptr;
}

const simnet::TcpCounters* StreamDnsClient::tcp_counters() const {
  const auto& tcp = race_.current().tcp;
  return tcp ? &tcp->counters() : nullptr;
}

const ResolutionResult& StreamDnsClient::result(std::uint64_t id) const {
  return results_.at(id);
}

}  // namespace dohperf::core
