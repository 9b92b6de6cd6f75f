// Legacy UDP DNS stub resolver client with ID matching, timeout and
// retransmission.
#pragma once

#include <map>

#include "core/client.hpp"
#include "core/query_ledger.hpp"
#include "obs/span.hpp"
#include "simnet/host.hpp"

namespace dohperf::core {

struct UdpClientConfig {
  simnet::TimeUs timeout = simnet::seconds(5);
  int max_retries = 0;  ///< retransmissions after the first attempt
  bool edns = true;     ///< attach an EDNS0 OPT record to queries
  obs::SpanContext obs; ///< tracing/metrics sink (default: off)
};

class UdpResolverClient final : public ResolverClient {
 public:
  UdpResolverClient(simnet::Host& host, simnet::Address server,
                    UdpClientConfig config = {});
  ~UdpResolverClient() override;

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;
  const ResolutionResult& result(std::uint64_t id) const override {
    return ledger_.result(id);
  }
  std::size_t completed() const override { return ledger_.completed(); }

  std::uint64_t timeouts() const noexcept { return timeouts_; }
  /// Retransmissions sent after first attempts (the client-side half of
  /// the retry-amplification factor the overload bench reports).
  std::uint64_t retransmissions() const noexcept { return retransmissions_; }

  /// Rebind the tracing/metrics sink (per-query sampling hands each query
  /// a different context; metric handles re-bind automatically).
  void set_obs(const obs::SpanContext& obs) noexcept { config_.obs = obs; }

 private:
  /// A query in flight; its retry timer is the per-attempt timeout.
  struct Pending : Query {
    dns::Bytes wire;  ///< for retransmission
  };

  void on_datagram(const dns::Bytes& payload);
  void send_query(std::uint16_t dns_id);
  void on_timeout(std::uint16_t dns_id);

  simnet::Host& host_;
  simnet::Address server_;
  UdpClientConfig config_;
  QueryLedger ledger_;
  simnet::UdpSocket* socket_;
  std::uint16_t next_dns_id_ = 1;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::map<std::uint16_t, Pending> pending_;  ///< keyed by DNS message ID
};

}  // namespace dohperf::core
