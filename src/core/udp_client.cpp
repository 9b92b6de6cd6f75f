#include "core/udp_client.hpp"

namespace dohperf::core {

UdpResolverClient::UdpResolverClient(simnet::Host& host,
                                     simnet::Address server,
                                     UdpClientConfig config)
    : host_(host), server_(server), config_(config),
      ledger_(host.loop(), config_.obs, "udp", config_.max_retries),
      socket_(&host.udp_open()) {
  socket_->set_receiver(
      [this](const dns::Bytes& payload, simnet::Address /*from*/) {
        on_datagram(payload);
      });
}

UdpResolverClient::~UdpResolverClient() {
  for (auto& [dns_id, p] : pending_) {
    host_.loop().cancel(p.retry.timeout_timer);
  }
  host_.udp_close(*socket_);
}

std::uint64_t UdpResolverClient::resolve(const dns::Name& name,
                                         dns::RType type,
                                         ResolveCallback callback) {
  // Allocate a DNS message ID not currently in flight.
  std::uint16_t dns_id = next_dns_id_++;
  while (pending_.count(dns_id) != 0 || dns_id == 0) dns_id = next_dns_id_++;

  Pending pending;
  const std::uint64_t query_id =
      ledger_.open(pending, name, type, std::move(callback));
  pending.wire =
      dns::Message::make_query(dns_id, name, type, config_.edns).encode();
  // UDP cost is exact and known up-front for the query half; the response
  // half is added on completion.
  ledger_.result(query_id).cost.dns_message_bytes = pending.wire.size();

  pending_.emplace(dns_id, std::move(pending));
  send_query(dns_id);
  return query_id;
}

void UdpResolverClient::send_query(std::uint16_t dns_id) {
  auto& pending = pending_.at(dns_id);
  CostReport& cost = ledger_.result(pending.id).cost;
  cost.wire_bytes +=
      pending.wire.size() + simnet::kIpHeaderBytes + simnet::kUdpHeaderBytes;
  cost.packets += 1;
  ledger_.begin_request(pending.retry);
  socket_->send_to(server_, pending.wire);
  pending.retry.timeout_timer = host_.loop().schedule_in(
      config_.timeout, [this, dns_id]() { on_timeout(dns_id); });
}

void UdpResolverClient::on_timeout(std::uint16_t dns_id) {
  const auto it = pending_.find(dns_id);
  if (it == pending_.end()) return;
  QueryRetry& retry = it->second.retry;
  if (retry.retries_left > 0) {
    --retry.retries_left;
    ledger_.record_retry(retry, "timeout");
    ++retransmissions_;
    send_query(dns_id);
    return;
  }
  ++timeouts_;
  ledger_.count(&TransportMetrics::timeouts);
  Pending pending = std::move(it->second);
  pending_.erase(it);
  ledger_.fail(pending);
}

void UdpResolverClient::on_datagram(const dns::Bytes& payload) {
  dns::Message response;
  try {
    response = dns::Message::decode(payload);
  } catch (const dns::WireError&) {
    return;  // garbage datagram; ignore like a real stub
  }
  const auto it = pending_.find(response.id);
  if (it == pending_.end() || !response.flags.qr) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  CostReport& cost = ledger_.result(pending.id).cost;
  cost.wire_bytes +=
      payload.size() + simnet::kIpHeaderBytes + simnet::kUdpHeaderBytes;
  cost.packets += 1;
  ledger_.finish(pending, true, std::move(response), payload.size());
}

}  // namespace dohperf::core
