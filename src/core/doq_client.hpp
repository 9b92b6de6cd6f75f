// DNS-over-QUIC client (RFC 9250) — EXTENSION beyond the paper's
// transports. Each query travels on its own bidirectional QUIC stream
// (2-byte length prefix + DNS message, then FIN), so queries are as
// independent as DoH/2 streams but without TCP's loss-induced head-of-line
// blocking underneath.
//
// Resilience: with a RetryPolicy the client replaces a dead connection and
// re-issues in-flight queries under their budgets. With MigrationConfig the
// client reacts to network churn the QUIC way — the connection itself
// migrates: a PATH_CHALLENGE probes the (possibly re-addressed) path and,
// when the server permits migration, the connection survives without a new
// handshake.
#pragma once

#include <map>
#include <memory>

#include "core/client.hpp"
#include "core/lifecycle.hpp"
#include "obs/span.hpp"
#include "quicsim/endpoint.hpp"

namespace dohperf::core {

struct DoqClientConfig {
  std::string server_name = "doq.example";
  quicsim::QuicConnectionConfig quic;
  /// Reconnection + per-query retry behaviour; default is fail-fast.
  RetryPolicy retry;
  /// Network-churn handling: probe the path instead of reconnecting.
  MigrationConfig migration;
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

class DoqClient final : public ResolverClient {
 public:
  DoqClient(simnet::Host& host, simnet::Address server,
            DoqClientConfig config = {});
  ~DoqClient() override;

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

  void disconnect();
  const quicsim::QuicCounters* quic_counters() const;

 private:
  /// A query in flight and the response received on its stream so far.
  struct Pending : Query {
    dns::Bytes rx;
  };

  void ensure_connection(obs::SpanId parent);
  void issue(Pending pending);
  void on_stream_data(std::uint64_t stream_id,
                      std::span<const std::uint8_t> data, bool fin);
  /// Fail or (budget permitting) re-issue every query in flight after the
  /// connection died or, on a timeout teardown, was condemned by the
  /// timeout of query `suspect`.
  void reissue(ReissueCause cause, std::uint64_t suspect = kNoQuery);
  /// QUIC migration: validate the current path with a PATH_CHALLENGE. The
  /// connection — handshake included — survives the address change.
  void begin_migration(const char* reason);

  simnet::Host& host_;
  simnet::Address server_;
  DoqClientConfig config_;
  QueryLedger ledger_;
  ConnectionLifecycle lifecycle_;
  std::unique_ptr<quicsim::QuicClientEndpoint> endpoint_;
  ConnectSpans spans_;  ///< of the endpoint's connection
  bool closing_ = false;  ///< disconnect() in progress: do not retry

  std::map<std::uint64_t, Pending> pending_;  ///< keyed by stream id
};

}  // namespace dohperf::core
