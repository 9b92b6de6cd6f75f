// Overload matrix: the resolver-tier overload-control ladder under offered
// load from 0.5x to 4x of nominal capacity, plus a hot-tenant cell and a
// post-outage thundering herd. One shared RecursiveTier (cache + coalescing
// in every cell — the ladder varies *control*, not capacity) fronts an
// Engine behind UDP and DoH front-ends, serving an open-loop Zipf-popular
// client population (even clients speak DoH/h2, odd clients classic UDP):
//
//   none       cache + coalescing only; queue unbounded, everything admitted
//   queue      + bounded queue with deadline-aware shedding at dequeue
//   queue+adm  + gradient/AIMD admission on observed service latency
//   full       + per-client token-bucket fairness + server-side retry budget
//
// Scenarios (rates are multiples of the ~300 q/s nominal capacity):
//   load-{0.5x,1x,2x,4x}  uniform population at the given offered load
//   hotspot-2x            2x load, one tenant sending half of all queries
//   herd-0.9x             steady 0.9x; both front-ends crash mid-run for 2s,
//                         then the accumulated retries stampede back
//
// Goodput counts a query answered NOERROR within the 2s client deadline.
// The retry-amplification factor (RAF) is client-observed: (first sends +
// UDP retransmissions + DoH re-issues) / first sends — the metastability
// number. Shed answers are REFUSED, which clients treat as terminal (no
// retry), so shedding *reduces* RAF; that interaction is the point.
//
// Self-gates (full-horizon, waived by --no-gate; determinism always checked):
//   retention   full@2x keeps >=80% of full@1x absolute goodput
//   collapse    none@2x goodput%  <= half of full@2x goodput%
//   raf         none@2x amplifies (RAF >= 1.5); full@2x does not (<= 1.2)
//   fairness    hotspot-2x: full rung keeps the 23 non-hot clients >= 85%
//               goodput and beats the uncontrolled rung
//   herd        queries offered after recovery+1s resolve >= 99% on full
//
// Every draw (arrivals, Zipf ranks, client picks, backoff jitter) comes
// from seeded generators over virtual time: the grid is a pure function of
// --seed. bench/matrix.hpp runs the grid twice and compares renderings, and
// one shard per cell merges by index so --jobs=N output is byte-identical.
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "matrix.hpp"
#include "core/doh_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/engine.hpp"
#include "resolver/recursive_tier.hpp"
#include "resolver/udp_server.hpp"
#include "workload/population.hpp"

namespace {

using namespace dohperf;

constexpr simnet::TimeUs kDeadline = simnet::seconds(2);
constexpr std::size_t kClients = 24;  ///< even = DoH/h2, odd = UDP
constexpr std::size_t kNames = 48;
constexpr double kZipfExponent = 1.0;
/// Nominal tier capacity: one worker, 2ms per cache hit and 8ms per
/// back-end miss; with 48 names at TTL 3s the observed miss rate settles
/// near 25/s, so 300 q/s runs ~0.75 utilization — comfortably stable — and
/// 2x is ~1.5x over capacity (see EXPERIMENTS.md for the arithmetic).
constexpr double kNominalQps = 300.0;

struct Scenario {
  std::string name;
  double rate_factor = 1.0;
  double hot_share = 0.0;  ///< extra query mass on client 0
  bool herd = false;       ///< crash both front-ends mid-run
};

std::vector<Scenario> scenarios() {
  return {
      {"load-0.5x", 0.5, 0.0, false}, {"load-1x", 1.0, 0.0, false},
      {"load-2x", 2.0, 0.0, false},   {"load-4x", 4.0, 0.0, false},
      {"hotspot-2x", 2.0, 0.5, false}, {"herd-0.9x", 0.9, 0.0, true},
  };
}

/// The control ladder, least to most defended.
constexpr std::array<const char*, 4> kRungs = {"none", "queue", "queue+adm",
                                               "full"};

resolver::TierConfig tier_for(const std::string& rung) {
  resolver::TierConfig config;
  config.workers = 1;
  config.cache_entries = 4096;
  config.hit_processing = simnet::us(2000);
  config.coalesce = true;
  if (rung == "none") return config;
  // queue: hard bound plus deadline-aware shedding at dequeue.
  config.bound_queue = true;
  config.queue_capacity = 64;
  config.deadline = simnet::seconds(1);
  config.expected_service = simnet::ms(3);
  if (rung == "queue") return config;
  // queue+adm: AIMD limit on outstanding work. best-case hit latency is
  // ~2ms, so the 6.0x inflation threshold trips near 12ms average —
  // comfortably above the stable steady state, firmly below a growing
  // queue.
  config.admission_enabled = true;
  config.admission.min_limit = 12;
  config.admission.max_limit = 512;
  config.admission.initial_limit = 64;
  config.admission.window = 32;
  config.admission.inflate_permille = 6000;
  config.admission.decrease_permille = 700;
  config.admission.increase_step = 2;
  if (rung == "queue+adm") return config;
  // full: per-client fairness (35 q/s against a 12.5 q/s uniform share at
  // 1x) and the server-side retry budget (10% of fresh traffic).
  config.fairness_enabled = true;
  config.fairness.rate_milli = 35000;
  config.fairness.burst_milli = 50000;
  config.retry_budget_enabled = true;
  config.retry_ratio_permille = 100;
  config.retry_reserve_milli = 10000;
  config.retry_cap_milli = 100000;
  config.retry_window = simnet::seconds(2);  ///< must stay below the 3s TTL
  return config;
}

struct RunMetrics {
  std::size_t offered = 0;
  std::size_t good = 0;  ///< NOERROR within kDeadline
  std::vector<double> resolution_ms;
  std::uint64_t udp_retransmissions = 0;
  std::uint64_t doh_reissues = 0;
  resolver::TierStats tier;
  std::size_t doh_peak_sessions = 0;
  std::size_t doh_memory_bytes = 0;
  std::uint64_t doh_reconnects = 0;
  /// Herd cells: goodput% of queries first offered >= 1s after the
  /// front-ends recovered. Hotspot cells: goodput% of the 23 clients that
  /// are not the hot tenant.
  std::optional<double> aux_pct;
};

double raf(const RunMetrics& m) {
  return m.offered == 0
             ? 1.0
             : static_cast<double>(m.offered + m.udp_retransmissions +
                                   m.doh_reissues) /
                   static_cast<double>(m.offered);
}

RunMetrics run(const Scenario& scenario, const std::string& rung,
               std::uint64_t seed, std::size_t duration_sec,
               obs::Registry* registry = nullptr) {
  simnet::EventLoop loop;
  simnet::Network net(loop, seed);
  simnet::Host server_host(net, "tier");
  std::vector<std::unique_ptr<simnet::Host>> client_hosts;
  client_hosts.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    client_hosts.push_back(
        std::make_unique<simnet::Host>(net, "c" + std::to_string(c)));
    simnet::LinkConfig link;
    link.latency = simnet::ms(5);
    net.connect(client_hosts[c]->id(), server_host.id(), link);
  }

  const obs::SpanContext obs{nullptr, 0, registry};

  resolver::EngineConfig engine_config;
  engine_config.obs = obs;
  engine_config.ttl = 3;  // short, so the tier cache has real dynamics
  engine_config.upstream.cache_hit_ratio = 1.0;  // fixed service time
  engine_config.upstream.processing = simnet::ms(8);
  engine_config.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  resolver::Engine engine(loop, engine_config);

  resolver::TierConfig tier_config = tier_for(rung);
  tier_config.obs = obs;
  resolver::RecursiveTier tier(loop, engine, tier_config);

  resolver::UdpServer udp_server(server_host, tier, 53);
  resolver::DohServerConfig doh_config;
  doh_config.tls.chain = tlssim::CertificateChain::generic("tier.resolver");
  resolver::DohServer doh_server(server_host, tier, doh_config, 443);

  // The herd: both front-ends crash halfway through the base duration and
  // come back 2s later; the run gets 2 extra seconds so the post-recovery
  // window has room.
  const simnet::TimeUs restart_at =
      simnet::seconds(static_cast<std::int64_t>(duration_sec)) / 2;
  const simnet::TimeUs downtime = simnet::seconds(2);
  const simnet::TimeUs window_start = restart_at + downtime + simnet::seconds(1);
  if (scenario.herd) {
    loop.schedule_at(restart_at, [&]() {
      udp_server.restart(downtime);
      doh_server.restart(downtime);
    });
  }

  std::vector<std::unique_ptr<core::DohClient>> doh_clients;
  std::vector<std::unique_ptr<core::UdpResolverClient>> udp_clients;
  std::vector<core::ResolverClient*> stubs(kClients, nullptr);
  for (std::size_t c = 0; c < kClients; ++c) {
    if (c % 2 == 0) {
      core::DohClientConfig cfg;
      cfg.obs = obs;
      cfg.server_name = "tier.resolver";
      cfg.http_version = core::HttpVersion::kHttp2;
      cfg.retry.max_retries = 2;
      cfg.retry.backoff_initial = simnet::ms(200);
      cfg.retry.backoff_max = simnet::seconds(1);
      cfg.retry.query_timeout = simnet::seconds(1);
      cfg.retry.seed = seed ^ (0xbf58476d1ce4e5b9ULL * (c + 1));
      doh_clients.push_back(std::make_unique<core::DohClient>(
          *client_hosts[c], simnet::Address{server_host.id(), 443}, cfg));
      stubs[c] = doh_clients.back().get();
    } else {
      core::UdpClientConfig cfg;
      cfg.obs = obs;
      cfg.timeout = simnet::seconds(1);
      cfg.max_retries = 2;
      udp_clients.push_back(std::make_unique<core::UdpResolverClient>(
          *client_hosts[c], simnet::Address{server_host.id(), 53}, cfg));
      stubs[c] = udp_clients.back().get();
    }
  }

  workload::PopulationConfig pop;
  pop.clients = kClients;
  pop.names = kNames;
  pop.zipf_exponent = kZipfExponent;
  pop.rate_qps = kNominalQps * scenario.rate_factor;
  pop.duration = simnet::seconds(
      static_cast<std::int64_t>(duration_sec + (scenario.herd ? 2 : 0)));
  pop.hot_client_share = scenario.hot_share;
  pop.seed = seed ^ 0x94d049bb133111ebULL;
  const workload::PopulationWorkload workload(pop);
  const auto events = workload.generate();

  std::vector<std::uint64_t> ids(events.size(), 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    const dns::Name name = workload.name_for(ev.name_rank);
    loop.schedule_at(ev.at, [&, i, name]() {
      ids[i] = stubs[events[i].client]->resolve(name, dns::RType::kA, {});
    });
  }
  loop.run();

  RunMetrics m;
  m.offered = events.size();
  std::size_t aux_offered = 0, aux_good = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    const auto& r = stubs[ev.client]->result(ids[i]);
    m.resolution_ms.push_back(static_cast<double>(r.resolution_time()) / 1e3);
    const bool good = r.success &&
                      r.response.flags.rcode == dns::Rcode::kNoError &&
                      r.resolution_time() <= kDeadline;
    if (good) ++m.good;
    if (scenario.herd ? ev.at >= window_start : ev.client != 0) {
      ++aux_offered;
      if (good) ++aux_good;
    }
  }
  if (scenario.herd || scenario.hot_share > 0.0) {
    m.aux_pct = bench::percent(aux_good, aux_offered);
  }
  for (const auto& u : udp_clients) m.udp_retransmissions += u->retransmissions();
  for (const auto& d : doh_clients) {
    m.doh_reissues += d->retry_stats().retried_queries;
    m.doh_reconnects += d->retry_stats().reconnects;
  }
  m.tier = tier.stats();
  m.doh_peak_sessions = doh_server.peak_sessions();
  m.doh_memory_bytes = doh_server.memory_estimate_bytes();
  return m;
}

void columns(const RunMetrics& m, bench::Columns& c) {
  c.count("offered", "offered", m.offered);
  c.fixed("good%", "goodput_pct", bench::percent(m.good, m.offered), 1);
  c.percentile("p50(ms)", "p50_ms", m.resolution_ms, 50);
  c.percentile("p99(ms)", "p99_ms", m.resolution_ms, 99);
  c.fixed("shed%", "shed_pct", bench::percent(m.tier.sheds(), m.tier.requests),
          1);
  c.fixed("raf", "raf", raf(m), 2);
  c.fixed("hit%", "cache_hit_pct",
          bench::percent(m.tier.cache_hits,
                         m.tier.cache_hits + m.tier.cache_misses),
          1);
  c.count("conns", "doh_peak_sessions", m.doh_peak_sessions);
  c.add("mem(KB)", "doh_memory_bytes",
        static_cast<std::int64_t>(m.doh_memory_bytes),
        std::to_string(m.doh_memory_bytes / 1024));
  if (m.aux_pct) {
    c.fixed("aux%", "aux_pct", *m.aux_pct, 1);
  } else {
    c.add("aux%", "aux_pct", 0.0, "-");
  }
  c.count("", "good", m.good);
  c.count("", "udp_retransmissions", m.udp_retransmissions);
  c.count("", "doh_reissues", m.doh_reissues);
  c.count("", "doh_reconnects", m.doh_reconnects);
  c.count("", "coalesced", m.tier.coalesced);
  c.count("", "retries_detected", m.tier.retries_detected);
  dns::JsonObject shed;
  shed["queue_full"] = static_cast<std::int64_t>(m.tier.shed_queue_full);
  shed["deadline"] = static_cast<std::int64_t>(m.tier.shed_deadline);
  shed["admission"] = static_cast<std::int64_t>(m.tier.shed_admission);
  shed["fairness"] = static_cast<std::int64_t>(m.tier.shed_fairness);
  shed["retry_budget"] = static_cast<std::int64_t>(m.tier.shed_retry_budget);
  c.add("", "shed", dns::JsonValue(std::move(shed)), "");
  c.count("", "queue_peak", m.tier.queue_peak);
}

/// Every gate is full-horizon: a cell shorter than the default 10s sees too
/// little overload, herd or hotspot traffic for the ladder to separate.
void gates(const bench::Grid<RunMetrics>& g, bench::Gates& out) {
  // Cell coordinates in the fixed scenario x rung grid.
  constexpr std::size_t k1x = 1, k2x = 2, kHotspot = 4, kHerd = 5;
  constexpr std::size_t kNone = 0, kFull = 3;
  const auto gate = [&](const char* key, const char* claim, bool pass,
                         std::string numbers) {
    bench::Gate& added = out.emplace_back(key, claim, bench::kFullHorizon);
    added.pass = pass;
    added.numbers = std::move(numbers);
  };
  const RunMetrics& full_1x = g.at(k1x, kFull);
  const RunMetrics& full_2x = g.at(k2x, kFull);
  const RunMetrics& none_2x = g.at(k2x, kNone);
  gate("retention", "full@2x >= 80% of full@1x goodput",
       static_cast<double>(full_2x.good) >=
           0.8 * static_cast<double>(full_1x.good),
       bench::strf("(%zu vs %zu)", full_2x.good, full_1x.good));
  const double none_good = bench::percent(none_2x.good, none_2x.offered);
  const double full_good = bench::percent(full_2x.good, full_2x.offered);
  gate("collapse", "none@2x <= half of full@2x goodput%",
       none_good <= 0.5 * full_good,
       bench::strf("(%.1f%% vs %.1f%%)", none_good, full_good));
  const double none_raf = raf(none_2x), full_raf = raf(full_2x);
  gate("raf", "none@2x >= 1.5, full@2x <= 1.2",
       none_raf >= 1.5 && full_raf <= 1.2,
       bench::strf("(%.2f / %.2f)", none_raf, full_raf));
  const double nonhot = *g.at(kHotspot, kFull).aux_pct;
  gate("fairness", "hotspot full non-hot >= 85%, beats none",
       nonhot >= 85.0 && nonhot >= *g.at(kHotspot, kNone).aux_pct,
       bench::strf("(%.1f%%)", nonhot));
  const double window = *g.at(kHerd, kFull).aux_pct;
  gate("herd", "post-recovery window >= 99% on full", window >= 99.0,
       bench::strf("(%.1f%%)", window));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t duration_sec = bench::flag(argc, argv, "duration", 10);
  const std::uint64_t seed = bench::flag(argc, argv, "seed", 7);

  std::printf("=== Overload matrix: offered load x control ladder ===\n");
  std::printf("(~%.0f q/s nominal capacity, %zu clients (even DoH/h2, odd "
              "UDP), %zu Zipf names, TTL 3s, %zus per cell, seed %llu; "
              "good = NOERROR within 2s; aux%% = post-recovery goodput for "
              "herd rows, non-hot-client goodput for hotspot rows)\n\n",
              kNominalQps, kClients, kNames, duration_sec,
              static_cast<unsigned long long>(seed));

  const auto grid = scenarios();
  return bench::run_matrix(
      argc, argv, seed,
      bench::Matrix<RunMetrics>{
          "overload_matrix",
          {{"duration", static_cast<std::int64_t>(duration_sec)},
           {"clients", static_cast<std::int64_t>(kClients)},
           {"nominal_qps", kNominalQps}},
          bench::Axis::of("scenario", grid, &Scenario::name),
          bench::Axis::of("rung", kRungs), columns, gates},
      [&](auto row, auto col, auto cell_seed, auto* registry) {
        return run(grid[row], kRungs[col], cell_seed, duration_sec, registry);
      });
}
