// DNS over a persistent byte stream with two-byte length framing and
// multiple outstanding queries matched by DNS message ID: RFC 7766 DNS over
// TCP, and RFC 7858 DNS over TLS, which is the same protocol inside TLS.
// TcpDnsClient and DotClient are this class with TLS off and on.
//
// With a RetryPolicy (max_retries > 0) the client reconnects after
// transport loss with exponential backoff and re-issues the queries that
// were in flight, each under its own retry budget; a per-query timeout
// optionally covers servers that accept but never answer. With
// MigrationConfig it detects network churn and races a fresh connection
// against the stalled one. Connection reuse, adoption and the race are
// core::MigrationRace; this class supplies the connection and the framing.
#pragma once

#include <map>
#include <memory>

#include "core/client.hpp"
#include "core/lifecycle.hpp"
#include "obs/span.hpp"
#include "simnet/host.hpp"
#include "simnet/stream.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::core {

struct DotClientConfig {
  std::string server_name = "dot.example";  ///< SNI; offers TLS 1.2..1.3
  tlssim::SessionCache* session_cache = nullptr;
  /// Reconnection + per-query retry behaviour; default is fail-fast.
  RetryPolicy retry;
  /// Network-churn handling (stall detection, connection racing).
  MigrationConfig migration;
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

class StreamDnsClient : public ResolverClient {
 public:
  ~StreamDnsClient() override;

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;
  const ResolutionResult& result(std::uint64_t id) const override {
    return ledger_.result(id);
  }
  std::size_t completed() const override { return ledger_.completed(); }
  const RetryStats& retry_stats() const noexcept {
    return lifecycle_.retry_stats();
  }
  const MigrationStats& migration_stats() const noexcept {
    return lifecycle_.migration_stats();
  }

  /// Close the connection (a new one is opened on the next resolve).
  /// Outstanding queries fail without retry — the close was deliberate.
  void disconnect();

  /// Connection-level counters of the current connection (null when none).
  const simnet::TcpCounters* tcp_counters() const;

 protected:
  /// `tls` false runs plain TCP: the TLS fields of `config` are unused.
  StreamDnsClient(simnet::Host& host, simnet::Address server,
                  DotClientConfig config, bool tls);

  /// TLS counters of the current connection (null when none or TCP).
  const tlssim::TlsCounters* tls_counters() const;

 private:
  /// One TCP connection and the byte stream the client speaks over it:
  /// the TCP stream itself, or TLS on top of it.
  struct Connection {
    std::shared_ptr<simnet::TcpConnection> tcp;
    std::unique_ptr<simnet::ByteStream> stream;
    tlssim::TlsConnection* tls = nullptr;  ///< `stream`, when TLS is on
    std::uint64_t serial = 0;  ///< names it in its callbacks; 1, 2, ...
    ConnectSpans spans;

    explicit operator bool() const noexcept { return stream != nullptr; }
  };
  friend class MigrationRace<Connection, StreamDnsClient>;

  // The MigrationRace connection trait.
  Connection open_connection(obs::SpanId parent);
  /// Open or still handshaking: usable for new queries.
  static bool live(const Connection& c);
  static std::uint64_t wire_bytes(const Connection& c);
  /// Abort the TCP connection (no local callbacks fire) and drop the
  /// stream; the TCP counters stay readable.
  void abort_connection(Connection& c);
  /// Fail or re-issue everything in flight. `suspect` is the query whose
  /// timeout condemned the connection.
  void reissue_from(const Connection& old, ReissueCause cause,
                    std::uint64_t suspect = kNoQuery);

  /// The current connection or the racer, by serial (null: neither).
  Connection* find(std::uint64_t serial);
  /// Setup of connection `serial` completed (TLS: the handshake).
  void on_established(std::uint64_t serial);
  void send_query(std::uint16_t dns_id, Query query);
  void on_data(std::span<const std::uint8_t> data);
  std::uint16_t allocate_dns_id();

  simnet::Host& host_;
  simnet::Address server_;
  DotClientConfig config_;
  bool use_tls_;
  QueryLedger ledger_;
  ConnectionLifecycle lifecycle_;
  MigrationRace<Connection, StreamDnsClient> race_;
  bool closing_ = false;  ///< disconnect() in progress: do not retry
  std::uint64_t next_serial_ = 1;
  dns::Bytes rx_;  ///< received, not yet framed bytes of connection rx_of_
  std::uint64_t rx_of_ = 0;

  std::uint16_t next_dns_id_ = 1;
  std::map<std::uint16_t, Query> pending_;  ///< keyed by DNS message ID
};

}  // namespace dohperf::core
