// Every resolver client's results stay where they are: the reference
// result(id) returns, and the one a callback receives, remain valid for the
// client's lifetime, across later resolve() calls and across resolve()
// calls made from inside the callback itself. One parameterized suite over
// the six transports and the four policy clients.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/caching_client.hpp"
#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/dot_client.hpp"
#include "core/fallback_client.hpp"
#include "core/health_client.hpp"
#include "core/hedging_client.hpp"
#include "core/tcp_dns_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/engine.hpp"
#include "resolver/tcp_dns_server.hpp"
#include "resolver/udp_server.hpp"
#include "sim_fixture.hpp"

namespace dohperf::core {
namespace {

enum class Kind {
  kUdp,
  kTcp,
  kDot,
  kDohH1,
  kDohH2,
  kDoq,
  kCaching,
  kFallback,
  kHealth,
  kHedging
};

std::string kind_name(const ::testing::TestParamInfo<Kind>& info) {
  static const char* const kNames[] = {"udp",     "tcp",      "dot",
                                       "doh_h1",  "doh_h2",   "doq",
                                       "caching", "fallback", "health",
                                       "hedging"};
  return kNames[static_cast<int>(info.param)];
}

dns::Name name(int i) {
  return dns::Name::parse("n" + std::to_string(i) + ".example.com");
}

class ResultStability : public dohperf::testing::TwoHostFixture,
                        public ::testing::WithParamInterface<Kind> {
 protected:
  ResultStability()
      : engine(loop, resolver::EngineConfig{}),
        udp_server(server, engine, 53),
        tcp_server(server, engine, {}, 54),
        dot_server(server, engine, {}, 853),
        doh_server(server, engine, doh_server_config(), 443),
        doq_server(server, engine, doq_server_config(), 8853) {
    client_under_test = make(GetParam());
  }

  static resolver::DohServerConfig doh_server_config() {
    resolver::DohServerConfig config;
    config.tls.chain = tlssim::CertificateChain::cloudflare();
    return config;
  }
  static resolver::DoqServerConfig doq_server_config() {
    resolver::DoqServerConfig config;
    config.tls.chain = tlssim::CertificateChain::generic("doq.example");
    return config;
  }

  ResolverClient& own(std::unique_ptr<ResolverClient> c) {
    clients.push_back(std::move(c));
    return *clients.back();
  }
  ResolverClient& udp() {
    return own(std::make_unique<UdpResolverClient>(
        client, simnet::Address{server.id(), 53}));
  }
  ResolverClient& doh(HttpVersion version) {
    DohClientConfig config;
    config.server_name = "cloudflare-dns.com";
    config.http_version = version;
    return own(std::make_unique<DohClient>(
        client, simnet::Address{server.id(), 443}, config));
  }

  ResolverClient* make(Kind kind) {
    switch (kind) {
      case Kind::kUdp:
        return &udp();
      case Kind::kTcp:
        return &own(std::make_unique<TcpDnsClient>(
            client, simnet::Address{server.id(), 54}));
      case Kind::kDot:
        return &own(std::make_unique<DotClient>(
            client, simnet::Address{server.id(), 853}));
      case Kind::kDohH1:
        return &doh(HttpVersion::kHttp1);
      case Kind::kDohH2:
        return &doh(HttpVersion::kHttp2);
      case Kind::kDoq:
        return &own(std::make_unique<DoqClient>(
            client, simnet::Address{server.id(), 8853}));
      case Kind::kCaching:
        return &own(std::make_unique<CachingResolverClient>(loop, udp()));
      case Kind::kFallback: {
        ResolverClient& primary = doh(HttpVersion::kHttp2);
        return &own(
            std::make_unique<FallbackResolverClient>(loop, primary, udp()));
      }
      case Kind::kHealth: {
        std::vector<ResolverClient*> resolvers{&udp()};
        return &own(
            std::make_unique<HealthTrackingClient>(loop, resolvers));
      }
      case Kind::kHedging: {
        ResolverClient& primary = udp();
        return &own(
            std::make_unique<HedgingResolverClient>(loop, primary, udp()));
      }
    }
    return nullptr;
  }

  resolver::Engine engine;
  resolver::UdpServer udp_server;
  resolver::TcpDnsServer tcp_server;
  resolver::DotServer dot_server;
  resolver::DohServer doh_server;
  resolver::DoqServer doq_server;
  std::vector<std::unique_ptr<ResolverClient>> clients;
  ResolverClient* client_under_test = nullptr;
};

TEST_P(ResultStability, ResultAddressSurvivesLaterQueries) {
  ResolverClient& c = *client_under_test;
  const std::uint64_t id = c.resolve(name(0), dns::RType::kA, {});
  loop.run();
  const ResolutionResult* before = &c.result(id);
  ASSERT_TRUE(before->success);
  for (int i = 1; i <= 100; ++i) c.resolve(name(i), dns::RType::kA, {});
  loop.run();
  EXPECT_EQ(c.completed(), 101u);
  EXPECT_EQ(&c.result(id), before);
  EXPECT_TRUE(c.result(id).success);
}

TEST_P(ResultStability, ReentrantCallbackStillReadsItsArgument) {
  ResolverClient& c = *client_under_test;
  bool checked = false;
  std::uint64_t id = 0;
  id = c.resolve(name(0), dns::RType::kA, [&](const ResolutionResult& r) {
    const ResolutionResult copy = r;
    for (int i = 1; i <= 100; ++i) c.resolve(name(i), dns::RType::kA, {});
    // The argument is the stored result, and it is still intact.
    EXPECT_EQ(&r, &c.result(id));
    EXPECT_EQ(r.success, copy.success);
    EXPECT_EQ(r.sent_at, copy.sent_at);
    EXPECT_EQ(r.completed_at, copy.completed_at);
    EXPECT_EQ(r.response.answers.size(), copy.response.answers.size());
    checked = true;
  });
  loop.run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(c.result(id).success);
  EXPECT_EQ(c.completed(), 101u);
}

INSTANTIATE_TEST_SUITE_P(
    AllClients, ResultStability,
    ::testing::Values(Kind::kUdp, Kind::kTcp, Kind::kDot, Kind::kDohH1,
                      Kind::kDohH2, Kind::kDoq, Kind::kCaching,
                      Kind::kFallback, Kind::kHealth, Kind::kHedging),
    kind_name);

}  // namespace
}  // namespace dohperf::core
