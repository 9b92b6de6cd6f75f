// DNS over a byte stream with two-byte length framing: the RFC 7766 DNS
// over TCP front-end (port 53) and, with TLS on top, the RFC 7858
// DNS-over-TLS front-end (port 853). TcpDnsServer and DotServer are this
// class with TLS off and on.
//
// The ordering policy models the finding in §3: out-of-order responses are
// permitted by the RFCs but require per-request state; of the public DoT
// deployments the paper checked, only Cloudflare implemented them. The
// default (in-order) therefore serializes responses in arrival order —
// which is exactly what produces DoT's head-of-line blocking in Figure 2.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "resolver/query_handler.hpp"
#include "simnet/host.hpp"
#include "simnet/stream.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::resolver {

struct TcpDnsServerConfig {
  /// false (default): responses serialized in query order, like most
  /// 2019-era servers. true: respond as soon as ready (Cloudflare-style).
  bool out_of_order = false;
  /// Hardening: a length prefix larger than this (or zero) is treated as a
  /// malformed peer and the connection is closed deterministically instead
  /// of buffering up to 64 KiB per frame. Queries never approach this.
  std::size_t max_message_bytes = 4096;
};

struct DotServerConfig : TcpDnsServerConfig {
  tlssim::ServerConfig tls;
};

class StreamDnsServer {
 public:
  virtual ~StreamDnsServer();

  StreamDnsServer(const StreamDnsServer&) = delete;
  StreamDnsServer& operator=(const StreamDnsServer&) = delete;

  simnet::Address address() const { return {host_.id(), port_}; }
  std::size_t session_count() const noexcept { return sessions_.size(); }
  /// Connections dropped for unparseable or oversized frames.
  std::uint64_t malformed() const noexcept { return malformed_; }

  /// Simulate a crash + restart: RST every live connection and stop
  /// listening; the listener comes back after `downtime`.
  void restart(simnet::TimeUs downtime);
  bool listening() const noexcept { return listening_; }
  std::uint64_t restarts() const noexcept { return restarts_; }

 protected:
  /// `tls` false serves plain TCP: `config.tls` is unused.
  StreamDnsServer(simnet::Host& host, QueryHandler& handler,
                  DotServerConfig config, bool tls, std::uint16_t port);

 private:
  struct Session {
    std::unique_ptr<simnet::ByteStream> stream;  ///< TCP, or TLS over it
    simnet::Bytes rx;
    std::uint64_t next_assigned = 0;
    std::uint64_t next_to_send = 0;
    std::map<std::uint64_t, dns::Bytes> ready;  ///< in-order buffering
    bool dead = false;
    simnet::NodeId peer = 0;  ///< requesting client, for QueryContext
    std::weak_ptr<Session> self;  ///< for continuations that may outlive us
  };

  void listen();
  void on_accept(std::shared_ptr<simnet::TcpConnection> conn);
  void on_data(Session& session, std::span<const std::uint8_t> data);
  /// Close a session whose peer sent an unparseable or oversized frame.
  void reject(Session& session);
  void answer(Session& session, std::uint64_t sequence, dns::Bytes wire);
  void prune();

  simnet::Host& host_;
  QueryHandler& handler_;
  DotServerConfig config_;
  bool tls_;
  std::uint16_t port_;
  std::uint64_t malformed_ = 0;
  bool listening_ = false;
  std::uint64_t restarts_ = 0;
  /// Guards the deferred re-listen against the server being destroyed.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::vector<std::shared_ptr<Session>> sessions_;
};

}  // namespace dohperf::resolver
