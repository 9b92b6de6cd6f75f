// DNS-over-TLS client (RFC 7858): TLS to port 853, two-byte length framing,
// multiple outstanding queries matched by DNS message ID. It is the stream
// client of DNS over TCP with TLS switched on; see stream_dns_client.hpp
// for its retry and migration behaviour.
#pragma once

#include "core/stream_dns_client.hpp"

namespace dohperf::core {

class DotClient final : public StreamDnsClient {
 public:
  DotClient(simnet::Host& host, simnet::Address server,
            DotClientConfig config = {})
      : StreamDnsClient(host, server, std::move(config), /*tls=*/true) {}

  using StreamDnsClient::tls_counters;
};

}  // namespace dohperf::core
