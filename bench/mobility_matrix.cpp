// Mobility matrix: the §3 workload replayed while the client hops networks —
// periodic Wi-Fi <-> LTE handovers that swap the link profile (5ms <-> 40ms)
// and silently re-address the client (NAT rebind: every old 5-tuple is
// black-holed) — across a churn sweep x transport x recovery-policy ladder:
//
//   udp   naive     retransmission is the recovery story (baseline)
//   dot   naive     RetryPolicy only: every reconnect pays a full handshake
//   dot   resume    + TLS session cache: reconnects resume in 1 RTT
//   dot   race      + migration: stall+probe detection, happy-eyeballs racing
//   doh   naive/resume/race   same ladder over HTTP/2
//   doq   naive     migration-incapable server: re-addressing strands the
//                   connection until the query timeout tears it down
//   doq   migrate   real QUIC connection migration: PATH_CHALLENGE validates
//                   the new path, the handshake survives re-addressing
//
// Reported per cell: availability, resolution-time percentiles, and the
// amortization ledger — migrations, resumed vs full handshakes, handshake
// bytes/RTTs paid, racing bytes wasted. Self-gating (full-horizon gates,
// waived by --no-gate; determinism always checked): the policy ladder must
// be monotone in availability at every churn rate, the resume and race
// rungs must pay strictly fewer handshake bytes (and no more handshake
// RTTs) than naive under churn, DoQ migration must survive re-addressing
// with zero new handshakes, and the whole table must be a pure function of
// --seed (two grid runs, byte-identical).
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "matrix.hpp"
#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/dot_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/udp_server.hpp"
#include "simnet/netchange.hpp"
#include "workload/names.hpp"

namespace {

using namespace dohperf;

struct ChurnRate {
  std::string name;
  simnet::TimeUs interval;  ///< 0 = no churn
};

std::vector<ChurnRate> churn_rates() {
  return {{"none", 0},
          {"60s", simnet::seconds(60)},
          {"10s", simnet::seconds(10)},
          {"2s", simnet::seconds(2)}};
}

/// The columns: one {transport, policy} rung each.
const bench::Axis kRungs{{"transport", "policy"},
                         {{"udp", "naive"},
                          {"dot", "naive"},
                          {"dot", "resume"},
                          {"dot", "race"},
                          {"doh", "naive"},
                          {"doh", "resume"},
                          {"doh", "race"},
                          {"doq", "naive"},
                          {"doq", "migrate"}}};

struct RunMetrics {
  std::size_t queries = 0;
  std::size_t ok = 0;
  std::vector<double> resolution_ms;
  core::RetryStats retry;
  core::MigrationStats migration;
  std::uint64_t udp_final_timeouts = 0;
  std::size_t churn_events = 0;
};

RunMetrics run(const ChurnRate& churn, const std::vector<std::string>& rung,
               std::uint64_t seed, std::size_t queries, double rate_qps,
               obs::Registry* registry = nullptr) {
  simnet::EventLoop loop;
  simnet::Network net(loop, seed);
  simnet::Host client(net, "client");
  simnet::Host server(net, "resolver");

  simnet::LinkConfig wifi;
  wifi.latency = simnet::ms(5);
  simnet::LinkConfig lte;
  lte.latency = simnet::ms(40);
  net.connect(client.id(), server.id(), wifi);

  // Handover schedule: first hop at interval/2, then every interval until
  // the workload's horizon. Each hop = silent rebind + profile swap (the
  // swap is the OS-visible part change listeners react to).
  const simnet::TimeUs horizon =
      simnet::from_sec(static_cast<double>(queries) / rate_qps);
  std::size_t churn_events = 0;
  if (churn.interval > 0) {
    const auto schedule = simnet::NetworkChangeSchedule::periodic_handover(
        churn.interval / 2, churn.interval, horizon, wifi, lte);
    churn_events = schedule.changes().size() / 2;  // rebind + swap per hop
    simnet::apply_network_changes(client, server.id(), schedule);
  }

  const obs::SpanContext obs{nullptr, 0, registry};

  resolver::EngineConfig engine_config;
  engine_config.obs = obs;
  engine_config.upstream.processing = simnet::us(50);
  engine_config.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  resolver::Engine engine(loop, engine_config);

  const std::string& transport = rung[0];
  const std::string& policy = rung[1];
  const auto chain = tlssim::CertificateChain::generic("local.resolver");

  std::unique_ptr<resolver::UdpServer> udp_server;
  std::unique_ptr<resolver::DotServer> dot_server;
  std::unique_ptr<resolver::DohServer> doh_server;
  std::unique_ptr<resolver::DoqServer> doq_server;
  if (transport == "udp") {
    udp_server = std::make_unique<resolver::UdpServer>(server, engine, 53);
  } else if (transport == "dot") {
    resolver::DotServerConfig config;
    config.tls.chain = chain;
    dot_server =
        std::make_unique<resolver::DotServer>(server, engine, config, 853);
  } else if (transport == "doh") {
    resolver::DohServerConfig config;
    config.tls.chain = chain;
    doh_server =
        std::make_unique<resolver::DohServer>(server, engine, config, 443);
  } else {
    resolver::DoqServerConfig config;
    config.tls.chain = chain;
    // The migrate rung gets a real RFC 9000 §9 server; the naive rung keeps
    // replying to the address that opened the connection.
    config.quic.allow_migration = policy == "migrate";
    doq_server =
        std::make_unique<resolver::DoqServer>(server, engine, config, 8853);
  }

  // Recovery knobs shared by the stateful transports: an 8-retry budget
  // with 100ms..1s backoff rides out every churn cadence; the 1s per-query
  // timeout is the naive rungs' only churn detector.
  core::RetryPolicy retry;
  retry.max_retries = 8;
  retry.backoff_initial = simnet::ms(100);
  retry.backoff_max = simnet::seconds(1);
  retry.query_timeout = simnet::seconds(1);
  retry.seed = seed ^ 0xbf58476d1ce4e5b9ULL;

  tlssim::SessionCache cache;
  const bool with_cache = policy == "resume" || policy == "race";
  core::MigrationConfig migration;
  migration.enabled = policy == "race" || policy == "migrate";

  std::unique_ptr<core::UdpResolverClient> udp;
  std::unique_ptr<core::DotClient> dot;
  std::unique_ptr<core::DohClient> doh;
  std::unique_ptr<core::DoqClient> doq;
  core::ResolverClient* stub = nullptr;
  if (transport == "udp") {
    core::UdpClientConfig config;
    config.obs = obs;
    config.timeout = simnet::seconds(1);
    config.max_retries = 8;
    udp = std::make_unique<core::UdpResolverClient>(
        client, simnet::Address{server.id(), 53}, config);
    stub = udp.get();
  } else if (transport == "dot") {
    core::DotClientConfig config;
    config.obs = obs;
    config.server_name = "local.resolver";
    config.retry = retry;
    config.migration = migration;
    if (with_cache) config.session_cache = &cache;
    dot = std::make_unique<core::DotClient>(
        client, simnet::Address{server.id(), 853}, config);
    stub = dot.get();
  } else if (transport == "doh") {
    core::DohClientConfig config;
    config.obs = obs;
    config.server_name = "local.resolver";
    config.http_version = core::HttpVersion::kHttp2;
    config.retry = retry;
    config.migration = migration;
    if (with_cache) config.session_cache = &cache;
    doh = std::make_unique<core::DohClient>(
        client, simnet::Address{server.id(), 443}, config);
    stub = doh.get();
  } else {
    core::DoqClientConfig config;
    config.obs = obs;
    config.server_name = "local.resolver";
    config.retry = retry;
    config.migration = migration;
    doq = std::make_unique<core::DoqClient>(
        client, simnet::Address{server.id(), 8853}, config);
    stub = doq.get();
  }

  workload::UniqueNameGenerator names("example.com", seed ^ 77);
  stats::PoissonArrivals arrivals(rate_qps, seed ^ 13);
  const auto times = arrivals.arrival_times(queries);

  std::vector<std::uint64_t> ids(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    const dns::Name name = names.next();
    loop.schedule_at(simnet::from_sec(times[i]), [&, i, name]() {
      ids[i] = stub->resolve(name, dns::RType::kA, {});
    });
  }
  loop.run();

  RunMetrics m;
  m.queries = queries;
  m.churn_events = churn_events;
  for (std::size_t i = 0; i < queries; ++i) {
    const auto& r = stub->result(ids[i]);
    if (r.success && r.response.flags.rcode == dns::Rcode::kNoError) {
      ++m.ok;
      m.resolution_ms.push_back(
          static_cast<double>(r.resolution_time()) / 1e3);
    }
  }
  if (udp != nullptr) m.udp_final_timeouts = udp->timeouts();
  const auto ledgers = [&m](const auto* c) {
    if (c == nullptr) return;
    m.retry = c->retry_stats();
    m.migration = c->migration_stats();
  };
  ledgers(dot.get());
  ledgers(doh.get());
  ledgers(doq.get());
  return m;
}

void columns(const RunMetrics& m, bench::Columns& c) {
  c.fixed("avail%", "avail_pct", bench::percent(m.ok, m.queries), 1);
  c.percentile("p50(ms)", "", m.resolution_ms, 50);
  c.percentile("p99(ms)", "", m.resolution_ms, 99);
  c.count("migr", "migrations", m.migration.migrations);
  c.count("resumed", "resumed_handshakes", m.migration.resumed_handshakes);
  c.count("full-hs", "full_handshakes", m.migration.full_handshakes);
  c.count("hs-bytes", "handshake_bytes", m.migration.handshake_bytes);
  c.count("hs-rtts", "handshake_rtts", m.migration.handshake_rtts);
  c.count("wasted", "migration_wasted_bytes",
          m.migration.migration_wasted_bytes);
  c.count("retries", "retries", m.retry.retried_queries);
  c.count("", "ok", m.ok);
  c.add("", "resolution_ms", bench::box_json(m.resolution_ms), "");
  c.count("", "churn_events", m.churn_events);
  c.count("", "reconnects", m.retry.reconnects);
  c.count("", "timeouts", m.udp_final_timeouts + m.retry.query_timeouts);
}

/// Every gate is full-horizon: a reduced workload (e.g. TSan CI) shrinks the
/// horizon below the slow churn intervals, so the churn-dependent gates
/// cannot hold.
void gates(const bench::Grid<RunMetrics>& g, bench::Gates& out) {
  const auto churns = churn_rates();
  // Rung indices into kRungs.
  constexpr std::size_t kDotNaive = 1, kDotResume = 2, kDotRace = 3;
  constexpr std::size_t kDohNaive = 4, kDohResume = 5, kDohRace = 6;
  constexpr std::size_t kDoqNaive = 7, kDoqMigrate = 8;

  // At every churn rate the policy ladder is monotone in availability (ties
  // allowed) — more machinery never answers less.
  bench::Gate& ladder = out.emplace_back(
      "ladder",
      "availability monotone up the policy ladder at every churn rate",
      bench::kFullHorizon);
  for (std::size_t c = 0; c < churns.size(); ++c) {
    for (const auto& [lo, hi] :
         {std::pair{kDotNaive, kDotResume}, {kDotResume, kDotRace},
          {kDohNaive, kDohResume}, {kDohResume, kDohRace},
          {kDoqNaive, kDoqMigrate}}) {
      if (g.at(c, lo).ok <= g.at(c, hi).ok) continue;
      const auto& low = kRungs.labels[lo];
      const auto& high = kRungs.labels[hi];
      ladder.fail(bench::strf(
          "churn=%s %s/%s ok=%zu > %s/%s ok=%zu", churns[c].name.c_str(),
          low[0].c_str(), low[1].c_str(), g.at(c, lo).ok, high[0].c_str(),
          high[1].c_str(), g.at(c, hi).ok));
    }
  }

  // Under churn, every rung with a session cache (resume, and race on top
  // of it) pays strictly fewer handshake bytes (and no more handshake
  // RTTs) than the full-handshake rung, and actually resumed at least once.
  bench::Gate& resumption = out.emplace_back(
      "resumption",
      "under churn: resume and race rungs pay strictly fewer handshake bytes "
      "than naive, no extra RTTs",
      bench::kFullHorizon);
  for (std::size_t c = 0; c < churns.size(); ++c) {
    if (churns[c].interval == 0) continue;
    for (const auto& [naive, cached] :
         {std::pair{kDotNaive, kDotResume}, {kDotNaive, kDotRace},
          {kDohNaive, kDohResume}, {kDohNaive, kDohRace}}) {
      const auto& n = g.at(c, naive).migration;
      const auto& r = g.at(c, cached).migration;
      if (r.resumed_handshakes == 0 || r.handshake_bytes >= n.handshake_bytes ||
          r.handshake_rtts > n.handshake_rtts) {
        resumption.fail(bench::strf(
            "churn=%s %s/%s resumed=%llu bytes=%llu vs naive bytes=%llu "
            "rtts=%llu vs %llu",
            churns[c].name.c_str(), kRungs.labels[cached][0].c_str(),
            kRungs.labels[cached][1].c_str(),
            static_cast<unsigned long long>(r.resumed_handshakes),
            static_cast<unsigned long long>(r.handshake_bytes),
            static_cast<unsigned long long>(n.handshake_bytes),
            static_cast<unsigned long long>(r.handshake_rtts),
            static_cast<unsigned long long>(n.handshake_rtts)));
      }
    }
  }

  // Real QUIC migration: under churn the DoQ connection survives every
  // re-addressing — exactly the one original handshake, and at least one
  // validated path migration.
  bench::Gate& doq = out.emplace_back(
      "doq_migration",
      "connection survives re-addressing with zero new handshakes",
      bench::kFullHorizon);
  for (std::size_t c = 0; c < churns.size(); ++c) {
    if (churns[c].interval == 0) continue;
    const auto& m = g.at(c, kDoqMigrate).migration;
    if (m.full_handshakes != 1 || m.migrations == 0) {
      doq.fail(bench::strf("churn=%s full_handshakes=%llu migrations=%llu",
                           churns[c].name.c_str(),
                           static_cast<unsigned long long>(m.full_handshakes),
                           static_cast<unsigned long long>(m.migrations)));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t queries = bench::flag(argc, argv, "queries", 600);
  const std::uint64_t seed = bench::flag(argc, argv, "seed", 7);
  const double rate_qps = 10.0;

  std::printf("=== Mobility matrix: network churn x transport x recovery "
              "policy ===\n");
  std::printf("(%zu unique names, Poisson %.0f q/s, seed %llu; each handover "
              "= silent NAT rebind + Wi-Fi<->LTE profile swap)\n\n",
              queries, rate_qps, static_cast<unsigned long long>(seed));

  const auto churns = churn_rates();
  return bench::run_matrix(
      argc, argv, seed,
      bench::Matrix<RunMetrics>{
          "mobility_matrix",
          {{"queries", static_cast<std::int64_t>(queries)}},
          bench::Axis::of("churn", churns, &ChurnRate::name), kRungs, columns,
          gates},
      [&](auto row, auto col, auto cell_seed, auto* registry) {
        return run(churns[row], kRungs.labels[col], cell_seed, queries,
                   rate_qps, registry);
      });
}
