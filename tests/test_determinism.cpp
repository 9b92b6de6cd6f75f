// The repository's two foundational claims, tested directly:
//  1. determinism — identical seeds produce bit-identical experiment
//     outcomes (timings, byte counts, orderings);
//  2. conservation — the layered byte accounting is consistent: what the
//     client's CostReport attributes matches what a packet tap observes on
//     the wire, and the per-layer parts never exceed the whole.
#include <gtest/gtest.h>

#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/udp_server.hpp"
#include "simnet/trace.hpp"
#include "workload/names.hpp"

namespace dohperf {
namespace {

/// One self-contained mini-experiment: N DoH queries with Poisson arrivals
/// over a jittery, lossy link; returns a digest of everything observable.
struct ExperimentDigest {
  std::vector<double> resolution_ms;
  std::vector<std::uint64_t> wire_bytes;
  std::uint64_t total_packets = 0;
  std::uint64_t tap_bytes = 0;

  bool operator==(const ExperimentDigest&) const = default;
};

ExperimentDigest run_experiment(std::uint64_t seed) {
  simnet::EventLoop loop;
  simnet::Network net(loop, seed);
  simnet::Host client(net, "client");
  simnet::Host server(net, "server");
  simnet::LinkConfig link;
  link.latency = simnet::ms(7);
  link.loss_rate = 0.05;  // loss makes determinism non-trivial
  net.connect(client.id(), server.id(), link);

  simnet::RecordingTap tap;
  net.add_tap(&tap);

  resolver::Engine engine(loop, {});
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh_server(server, engine, server_config, 443);

  core::DohClientConfig client_config;
  client_config.server_name = "cloudflare-dns.com";
  core::DohClient resolver_client(client, {server.id(), 443}, client_config);

  workload::UniqueNameGenerator names("example.com", seed ^ 1);
  stats::PoissonArrivals arrivals(50.0, seed ^ 2);
  const auto times = arrivals.arrival_times(30);

  ExperimentDigest digest;
  digest.resolution_ms.resize(30, -1.0);
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < 30; ++i) {
    loop.schedule_at(simnet::from_sec(times[i]),
                     [&, i, name = names.next()]() {
                       ids.push_back(resolver_client.resolve(
                           name, dns::RType::kA,
                           [&, i](const core::ResolutionResult& r) {
                             digest.resolution_ms[i] =
                                 simnet::to_ms(r.resolution_time());
                           }));
                     });
  }
  loop.run();
  for (const auto id : ids) {
    digest.wire_bytes.push_back(resolver_client.result(id).cost.wire_bytes);
  }
  digest.total_packets = net.packets_sent();
  digest.tap_bytes = tap.total_bytes();
  net.remove_tap(&tap);
  return digest;
}

TEST(Determinism, IdenticalSeedsIdenticalRuns) {
  const auto a = run_experiment(2019);
  const auto b = run_experiment(2019);
  EXPECT_EQ(a, b);
  // And every query actually resolved.
  for (const double t : a.resolution_ms) EXPECT_GE(t, 0.0);
}

TEST(Determinism, DifferentSeedsDiverge) {
  const auto a = run_experiment(2019);
  const auto c = run_experiment(2020);
  EXPECT_NE(a, c);
}

// --- byte conservation --------------------------------------------------------------

class ConservationTest : public ::testing::Test {
 protected:
  simnet::EventLoop loop;
  simnet::Network net{loop, 3};
  simnet::Host client{net, "client"};
  simnet::Host server{net, "server"};
  resolver::Engine engine{loop, {}};

  ConservationTest() {
    simnet::LinkConfig link;
    link.latency = simnet::ms(5);
    net.connect(client.id(), server.id(), link);
  }
};

TEST_F(ConservationTest, UdpCostMatchesTapExactly) {
  resolver::UdpServer udp_server(server, engine, 53);
  simnet::RecordingTap tap;
  net.add_tap(&tap);
  core::UdpResolverClient resolver_client(client, {server.id(), 53});
  const auto id =
      resolver_client.resolve(dns::Name::parse("x.example.com"),
                              dns::RType::kA, {});
  loop.run();
  net.remove_tap(&tap);
  const auto& cost = resolver_client.result(id).cost;
  EXPECT_EQ(cost.wire_bytes, tap.total_bytes());
  EXPECT_EQ(cost.packets, tap.size());
}

TEST_F(ConservationTest, DohFreshCostMatchesTap) {
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh_server(server, engine, server_config, 443);
  simnet::RecordingTap tap;
  net.add_tap(&tap);
  core::DohClientConfig config;
  config.server_name = "cloudflare-dns.com";
  config.persistent = false;
  core::DohClient resolver_client(client, {server.id(), 443}, config);
  const auto id = resolver_client.resolve(
      dns::Name::parse("x.example.com"), dns::RType::kA, {});
  loop.run();  // drain teardown
  net.remove_tap(&tap);

  const auto& cost = resolver_client.result(id).cost;
  // The tap sees everything the connection put on the wire; the client's
  // cost window may miss at most the final boundary ACK.
  EXPECT_LE(cost.wire_bytes, tap.total_bytes());
  EXPECT_GE(cost.wire_bytes + 100, tap.total_bytes());
  EXPECT_LE(cost.packets, tap.size());
  EXPECT_GE(cost.packets + 2, tap.size());
}

TEST_F(ConservationTest, DohFreshCostEqualsTapIncludingTheSyn) {
  // A fresh connection's cost window opens before the client's SYN, so the
  // CostReport is exactly what the tap saw on that connection.
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh_server(server, engine, server_config, 443);
  for (const auto version : {core::HttpVersion::kHttp1,
                             core::HttpVersion::kHttp2}) {
    simnet::RecordingTap tap;
    net.add_tap(&tap);
    core::DohClientConfig config;
    config.server_name = "cloudflare-dns.com";
    config.persistent = false;
    config.http_version = version;
    core::DohClient resolver_client(client, {server.id(), 443}, config);
    const auto id = resolver_client.resolve(
        dns::Name::parse("x.example.com"), dns::RType::kA, {});
    loop.run();  // drain teardown
    net.remove_tap(&tap);

    const auto& cost = resolver_client.result(id).cost;
    EXPECT_EQ(cost.wire_bytes, tap.total_bytes());
    EXPECT_EQ(cost.packets, tap.size());
  }
}

TEST_F(ConservationTest, DoqConnectionCountersEqualTap) {
  // QUIC counts a packet's wire size off the datagram it encoded or
  // received, so its counters must equal what the tap saw: on a fresh
  // connection (handshake, Initial padding, one query) and on the same
  // connection kept for more queries.
  resolver::DoqServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DoqServer doq_server(server, engine, server_config, 853);
  simnet::RecordingTap tap;
  net.add_tap(&tap);
  core::DoqClientConfig config;
  config.server_name = "cloudflare-dns.com";
  core::DoqClient resolver_client(client, {server.id(), 853}, config);
  const auto expect_counters_equal_tap = [&](const char* when) {
    const quicsim::QuicCounters* q = resolver_client.quic_counters();
    ASSERT_NE(q, nullptr) << when;
    EXPECT_EQ(q->total_wire_bytes(), tap.total_bytes()) << when;
    EXPECT_EQ(q->total_packets(), tap.size()) << when;
  };
  resolver_client.resolve(dns::Name::parse("x.example.com"), dns::RType::kA,
                          {});
  loop.run();
  expect_counters_equal_tap("fresh");
  for (int i = 0; i < 20; ++i) {
    resolver_client.resolve(
        dns::Name::parse("q" + std::to_string(i) + ".example.com"),
        dns::RType::kA, {});
  }
  loop.run();
  expect_counters_equal_tap("persistent");
  EXPECT_EQ(resolver_client.completed(), 21u);
  net.remove_tap(&tap);
}

TEST_F(ConservationTest, LayerPartsAreConsistent) {
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::google();
  resolver::DohServer doh_server(server, engine, server_config, 443);
  core::DohClientConfig config;
  config.server_name = "dns.google.com";
  config.persistent = false;
  core::DohClient resolver_client(client, {server.id(), 443}, config);
  const auto id = resolver_client.resolve(
      dns::Name::parse("layered.example.com"), dns::RType::kA, {});
  loop.run();
  const auto& c = resolver_client.result(id).cost;

  // The layers nest: DNS inside HTTP bodies, HTTP inside TLS app data,
  // TLS inside TCP payload, TCP inside the wire bytes.
  EXPECT_LE(c.dns_message_bytes, c.http_body_bytes);
  const auto http_total =
      c.http_body_bytes + c.http_header_bytes + c.http_mgmt_bytes;
  EXPECT_LT(http_total + c.tls_overhead_bytes + c.tcp_overhead_bytes,
            c.wire_bytes + 1);
  // ...and account for nearly all of it (nothing unattributed beyond the
  // odd boundary packet).
  EXPECT_GT(http_total + c.tls_overhead_bytes + c.tcp_overhead_bytes,
            c.wire_bytes * 95 / 100);
}

TEST_F(ConservationTest, PersistentSteadyStateHasNoHandshakeBytes) {
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh_server(server, engine, server_config, 443);
  core::DohClientConfig config;
  config.server_name = "cloudflare-dns.com";
  core::DohClient resolver_client(client, {server.id(), 443}, config);
  resolver_client.resolve(dns::Name::parse("warm.example.com"),
                          dns::RType::kA, {});
  loop.run();
  const auto id = resolver_client.resolve(
      dns::Name::parse("steady.example.com"), dns::RType::kA, {});
  loop.run();
  const auto& c = resolver_client.result(id).cost;
  // TLS overhead in steady state is record framing only: 22 bytes per
  // record, four records (HEADERS/DATA each way).
  EXPECT_EQ(c.tls_overhead_bytes % 22, 0u);
  EXPECT_LE(c.tls_overhead_bytes, 6 * 22u);
}

}  // namespace
}  // namespace dohperf
