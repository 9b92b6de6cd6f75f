#include "core/stream_dns_client.hpp"

#include <utility>

namespace dohperf::core {

StreamDnsClient::StreamDnsClient(simnet::Host& host, simnet::Address server,
                                 DotClientConfig config, bool tls)
    : host_(host),
      server_(server),
      config_(std::move(config)),
      use_tls_(tls),
      ledger_(host.loop(), config_.obs, tls ? "dot" : "tcp",
              config_.retry.max_retries),
      lifecycle_(
          host, ledger_, config_.retry, config_.migration,
          [this]() { return !pending_.empty(); },
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
  Query query;
  const std::uint64_t query_id =
      ledger_.open(query, name, type, std::move(callback));
  send_query(allocate_dns_id(), std::move(query));
  return query_id;
}

void StreamDnsClient::send_query(std::uint16_t dns_id, Query query) {
  Connection& conn = race_.acquire(query.retry.span);
  ledger_.begin_request(query.retry);

  const dns::Bytes wire =
      dns::Message::make_query(dns_id, query.name, query.type).encode();
  ledger_.result(query.id).cost.dns_message_bytes += wire.size();

  lifecycle_.arm_timeout(query.retry, [this, dns_id]() {
    lifecycle_.query_timeout(pending_, dns_id, [this](std::uint64_t id) {
      // Responses are serialized on one stream (the resolver answers in
      // order), so a stalled exchange at the head of the line blocks every
      // response behind it and re-issuing on the same session cannot
      // recover. Discard the suspect connection -- as real stub resolvers
      // discard suspect TCP sessions -- and let the reconnect path re-issue
      // every pending query, this one included.
      abort_connection(race_.current());
      reissue_from(race_.current(), ReissueCause::kTimeoutTeardown, id);
    });
  });
  pending_.emplace(dns_id, std::move(query));

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
    Query query = std::move(it->second);
    pending_.erase(it);
    lifecycle_.succeeded();
    ledger_.finish(query, true, std::move(response), wire.size());
    race_.drop_racer();  // the old path answered
  }
  if (!pending_.empty()) lifecycle_.arm_stall();
}

void StreamDnsClient::reissue_from(const Connection&, ReissueCause cause,
                                   std::uint64_t suspect) {
  // Every query in flight ran on the one current connection.
  lifecycle_.reissue_all(pending_, cause, suspect, !closing_,
                         [this](Query query) {
                           send_query(allocate_dns_id(), std::move(query));
                         });
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

}  // namespace dohperf::core
