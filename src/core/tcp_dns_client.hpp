// Plain DNS-over-TCP client (RFC 7766): persistent TCP connection, two-byte
// length framing, multiple outstanding queries matched by DNS message ID —
// connection-oriented DNS without encryption (the paper's reference [26]).
// It is the DoT client with TLS switched off, and fail-fast: no retries,
// no migration.
#pragma once

#include "core/stream_dns_client.hpp"

namespace dohperf::core {

struct TcpDnsClientConfig {
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

class TcpDnsClient final : public StreamDnsClient {
 public:
  TcpDnsClient(simnet::Host& host, simnet::Address server,
               obs::SpanContext obs = {})
      : TcpDnsClient(host, server, TcpDnsClientConfig{obs}) {}
  TcpDnsClient(simnet::Host& host, simnet::Address server,
               TcpDnsClientConfig config)
      : StreamDnsClient(host, server, plain(config), /*tls=*/false) {}

 private:
  static DotClientConfig plain(const TcpDnsClientConfig& config) {
    DotClientConfig plain;
    plain.obs = config.obs;
    return plain;
  }
};

}  // namespace dohperf::core
