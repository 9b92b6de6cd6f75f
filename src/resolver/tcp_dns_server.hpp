// Plain DNS-over-TCP front-end (RFC 7766): two-byte length framing over
// TCP port 53, no TLS. This is the classic truncation-fallback transport
// and the substrate of "connection-oriented DNS" (Zhu et al., the paper's
// reference [26]); the library implements it both for completeness and as
// an extra comparison point between UDP and the encrypted transports. It
// is the DoT front-end with TLS switched off.
#pragma once

#include "resolver/stream_dns_server.hpp"

namespace dohperf::resolver {

class TcpDnsServer final : public StreamDnsServer {
 public:
  TcpDnsServer(simnet::Host& host, QueryHandler& handler,
               TcpDnsServerConfig config = {}, std::uint16_t port = 53)
      : StreamDnsServer(host, handler, DotServerConfig{config, {}},
                        /*tls=*/false, port) {}
};

}  // namespace dohperf::resolver
