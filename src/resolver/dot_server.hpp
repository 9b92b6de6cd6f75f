// DNS-over-TLS front-end (RFC 7858): TLS on port 853, DNS messages framed
// with a two-byte length prefix — the DNS-over-TCP front-end with TLS
// switched on.
#pragma once

#include "resolver/stream_dns_server.hpp"

namespace dohperf::resolver {

class DotServer final : public StreamDnsServer {
 public:
  DotServer(simnet::Host& host, QueryHandler& handler, DotServerConfig config,
            std::uint16_t port = 853)
      : StreamDnsServer(host, handler, std::move(config), /*tls=*/true,
                        port) {}
};

}  // namespace dohperf::resolver
