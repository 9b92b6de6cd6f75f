// dohbench — end-to-end CPU cost of the simulated DNS stack.
//
//   dohbench --workload NAME --seed N --seconds S --trace 0|1 [--json PATH]
//            [--spans PATH]
//
// Four workloads, each loading a different layer (README.md says why):
//   warm_stream       one persistent connection per transport, open loop at
//                     1 ms virtual spacing: the per-message path
//   fresh_connection  one connection per resolution, closed loop: handshakes
//                     and the connection lifecycle
//   page_load         fig6 page loads sharded over a fixed worker pool: bulk
//                     HTTP/1.1 over TLS/TCP, the browser and the shard runner
//   tier_overload     2x nominal load on the full-control RecursiveTier with
//                     1% bursty loss: the tier's cache, queue and admission
//
// Load is scheduled in virtual time, so a slow simulator never receives less
// work: the benchmark reports CPU per operation at a fixed input size. A run
// repeats the workload in rounds until --seconds have passed and reports the
// median over rounds. Every round is a fresh, identically seeded simulation,
// so each must reproduce the virtual-time digest of the untimed check round
// that precedes them (the determinism guard). The last stdout line is one
// JSON object: {"correct","attempted","failed","metrics"}; with --trace 1 the
// metrics are the per-layer table instead of the end-to-end figures.
#include <sys/resource.h>  // detlint: allow(DET001) getrusage: peak RSS is a reported metric
#include <time.h>          // detlint: allow(DET001) clock_gettime: thread CPU is the measured quantity

#include <algorithm>
#include <array>
#include <chrono>  // detlint: allow(DET001) steady_clock times set-up, wall throughput and spans
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>  // detlint: allow(DET004) hardware_concurrency is recorded with the run, never used for results
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "browser/page_load.hpp"
#include "browser/vantage.hpp"
#include "browser/web_farm.hpp"
#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/dot_client.hpp"
#include "core/tcp_dns_client.hpp"
#include "core/udp_client.hpp"
#include "http1/message.hpp"
#include "http2/frame.hpp"
#include "http2/hpack.hpp"
#include "quicsim/packet.hpp"
#include "resolution_cost.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/engine.hpp"
#include "resolver/recursive_tier.hpp"
#include "resolver/tcp_dns_server.hpp"
#include "resolver/udp_server.hpp"
#include "shard_runner.hpp"
#include "simnet/trace.hpp"
#include "stats/rng.hpp"
#include "tlssim/handshake.hpp"
#include "workload/alexa.hpp"
#include "workload/population.hpp"

namespace {

using namespace dohperf;

// ---------------------------------------------------------------------------
// Clocks. These are the only real-time reads in the benchmark; none of them
// feeds the simulation, only the reported measurements.

/// CPU seconds consumed by the calling thread.
double thread_cpu_s() {
  timespec ts{};
  // detlint: allow(DET001) thread CPU time is the benchmark's measured quantity
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Monotonic wall seconds since an arbitrary epoch.
double wall_s() {
  // detlint: allow(DET001) wall time of set-up, throughput and spans is measured, never simulated
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

/// Peak resident set of this process, MB.
double peak_rss_mb() {
  rusage usage{};
  // detlint: allow(DET001) getrusage reads the peak RSS metric, not a clock the simulation sees
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double ratio(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

/// FNV-1a over 64-bit words: the virtual-time output digest.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      value ^= (v >> (8 * i)) & 0xff;
      value *= 0x100000001b3ULL;
    }
  }
};

/// Named sums a round collects for the per-layer table (ordered map: the
/// JSON report iterates it).
using Counts = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Spans of the traced run: the benchmark's own calls into each layer, kept
// in memory and written as Chrome trace_event JSON when the run ends.

struct SpanRecord {
  const char* name = "";
  std::uint32_t parent = 0;  ///< 1-based index of the enclosing span, 0 = root
  std::uint32_t worker = 0;  ///< shard worker / shard index (0 = main)
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(std::uint32_t worker = 0) : worker_(worker) {}

  /// Reserve the record store up front, on the global heap: a log that
  /// grew inside a shard arena would keep that arena alive.
  void reserve() {
    spans_.reserve(kMaxStored);
    stack_.reserve(64);
    open_at_.reserve(64);
  }

  /// Open a span under the innermost open one.
  void open(const char* name) {
    const double now = wall_s();
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back();
    open_at_.push_back(now);
    if (spans_.size() >= kMaxStored) {
      ++dropped_;
      stack_.push_back(0);
      return;
    }
    spans_.push_back({name, parent, worker_, now, now});
    stack_.push_back(static_cast<std::uint32_t>(spans_.size()));
  }

  /// Close the innermost span; returns its duration in seconds.
  double close() {
    const double now = wall_s();
    const double took = now - open_at_.back();
    if (stack_.back() != 0) spans_[stack_.back() - 1].end_s = now;
    stack_.pop_back();
    open_at_.pop_back();
    return took;
  }

  void absorb(const SpanLog& other) {
    dropped_ += other.dropped_;
    const auto base = static_cast<std::uint32_t>(spans_.size());
    for (SpanRecord s : other.spans_) {
      if (spans_.size() >= kMaxStored) {
        ++dropped_;
        continue;
      }
      if (s.parent != 0) s.parent += base;
      spans_.push_back(s);
    }
  }

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  /// ~24 MB of records; later spans are still timed but not stored.
  static constexpr std::size_t kMaxStored = 600000;
  std::uint32_t worker_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<double> open_at_;
  std::uint64_t dropped_ = 0;
};

/// RAII span that is a no-op without a log.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) log_->open(name);
  }
  ~SpanScope() {
    if (log_ != nullptr) log_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
};

std::string spans_json(const SpanLog& log, double epoch) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const SpanRecord& s = log.spans()[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%u}}",
                  first ? "" : ",", s.name, s.worker,
                  (s.start_s - epoch) * 1e6, (s.end_s - s.start_s) * 1e6,
                  i + 1, s.parent);
    out += buf;
    first = false;
  }
  std::snprintf(buf, sizeof(buf), "],\"dropped_spans\":%llu}",
                static_cast<unsigned long long>(log.dropped()));
  out += buf;
  return out;
}

// ---------------------------------------------------------------------------
// Packet accounting for check rounds and traced rounds.

class LayerTap final : public simnet::PacketTap {
 public:
  void on_packet(simnet::TimeUs, const simnet::Packet& packet,
                 bool dropped) override {
    if (dropped) {
      ++dropped_;
      return;
    }
    ++packets_;
    bytes_ += packet.wire_size();
    if (const auto* seg = std::get_if<simnet::TcpSegment>(&packet.body)) {
      if (seg->payload.size() == 0 && seg->ack_flag && !seg->syn &&
          !seg->fin && !seg->rst) {
        ++pure_acks_;
      }
      if (seg->syn && !seg->ack_flag) ++connects_;
    }
  }
  std::uint64_t packets() const noexcept { return packets_; }
  std::uint64_t bytes() const noexcept { return bytes_; }
  std::uint64_t pure_acks() const noexcept { return pure_acks_; }
  std::uint64_t connects() const noexcept { return connects_; }  ///< SYNs
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::uint64_t connects_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t pure_acks_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Attaches a tap to a network for its lifetime.
class TapScope {
 public:
  TapScope(simnet::Network& net, simnet::PacketTap& tap)
      : net_(net), tap_(&tap) {
    net_.add_tap(tap_);
  }
  ~TapScope() { net_.remove_tap(tap_); }
  TapScope(const TapScope&) = delete;
  TapScope& operator=(const TapScope&) = delete;

 private:
  simnet::Network& net_;
  simnet::PacketTap* tap_;
};

// ---------------------------------------------------------------------------
// Output check shared by every workload.

constexpr const char* kAnswerAddress = "192.0.2.1";  ///< EngineConfig default

/// kRefused is an explicit REFUSED that echoes the question: how the
/// RecursiveTier sheds load. Only tier_overload accepts it as an outcome.
enum class Outcome { kGood, kUnanswered, kWrong, kRefused };

/// An answered resolution must echo its question and carry exactly the
/// Engine's fixed A record for that name.
Outcome classify(const core::ResolutionResult& r, const dns::Name& name) {
  if (!r.success) return Outcome::kUnanswered;
  const dns::Message& m = r.response;
  if (m.questions.size() != 1 || !(m.questions[0].qname == name) ||
      m.questions[0].qtype != dns::RType::kA) {
    return Outcome::kWrong;
  }
  if (m.flags.rcode == dns::Rcode::kRefused) {
    return m.answers.empty() ? Outcome::kRefused : Outcome::kWrong;
  }
  if (m.flags.rcode != dns::Rcode::kNoError) return Outcome::kUnanswered;
  if (m.answers.size() != 1) return Outcome::kWrong;
  const dns::ResourceRecord expect = dns::ResourceRecord::a(name, kAnswerAddress);
  const dns::ResourceRecord& got = m.answers[0];
  if (!(got.name == name) || got.type != dns::RType::kA ||
      !(got.rdata == expect.rdata)) {
    return Outcome::kWrong;
  }
  return Outcome::kGood;
}

/// Fold one resolution's virtual-time outputs into a digest.
void digest_result(Digest& d, const core::ResolutionResult& r,
                   Outcome outcome) {
  d.add(static_cast<std::uint64_t>(outcome));
  d.add(static_cast<std::uint64_t>(r.sent_at));
  d.add(static_cast<std::uint64_t>(r.completed_at));
  d.add(r.cost.wire_bytes);
  d.add(r.cost.packets);
  d.add(r.cost.dns_message_bytes);
  d.add(static_cast<std::uint64_t>(r.response.flags.rcode));
  d.add(r.response.answers.size());
}

/// One round of a workload: an independent, identically seeded simulation.
// detlint: hot-slot
struct alignas(64) Round {
  double setup_s = 0.0;  ///< wall: inputs, network, servers, clients, warm-up
  double gen_s = 0.0;    ///< wall: input generation alone
  double cpu_s = 0.0;    ///< timed thread CPU, summed over workers
  double wall_s = 0.0;   ///< timed wall clock
  std::size_t ops = 0;   ///< attempted operations in the timed part
  std::size_t failed = 0;
  std::size_t wrong = 0;  ///< answered, but not with the Engine's record
  std::uint64_t digest = 0;
  std::string violation;  ///< first broken invariant; empty when none
  /// Per transport / resolver config: thread CPU µs per attempted op.
  std::map<std::string, double> phase_us;
  Counts counts;
};

void note_violation(Round& round, const std::string& what) {
  if (round.violation.empty()) round.violation = what;
}


// ---------------------------------------------------------------------------
// warm_stream and fresh_connection: one client and one resolver over a
// lossless 10 ms link with the Cloudflare certificate chain.

enum class Transport { kUdp, kTcp, kDot, kDohH1, kDohH2, kDoq };

const char* transport_name(Transport t) {
  switch (t) {
    case Transport::kUdp: return "udp";
    case Transport::kTcp: return "tcp";
    case Transport::kDot: return "dot";
    case Transport::kDohH1: return "doh_h1";
    case Transport::kDohH2: return "doh_h2";
    case Transport::kDoq: return "doq";
  }
  return "?";
}

constexpr std::array<Transport, 6> kWarmTransports = {
    Transport::kUdp,   Transport::kTcp,   Transport::kDot,
    Transport::kDohH1, Transport::kDohH2, Transport::kDoq};
constexpr std::array<Transport, 5> kFreshTransports = {
    Transport::kTcp, Transport::kDot, Transport::kDohH1, Transport::kDohH2,
    Transport::kDoq};

/// Queries per warm_stream phase at 1 ms spacing: 20 virtual seconds on one
/// connection, long enough for DoQ's spurious-PTO defect (ROADMAP A) to fire.
constexpr std::size_t kWarmQueries = 20000;
constexpr std::size_t kWarmupQueries = 64;
/// Resolutions per fresh_connection phase, each on its own connection.
constexpr std::size_t kFreshQueries = 1500;
/// Distinct corpus names the query streams draw from.
constexpr std::size_t kCorpusNames = 4000;

/// Names for one stream, drawn from the Alexa corpus by the seed.
std::vector<dns::Name> stream_names(std::uint64_t seed, std::size_t count) {
  const std::vector<dns::Name> corpus = bench::corpus_names(kCorpusNames);
  stats::SplitMix64 rng(seed ^ 0x5eedf00dULL);
  std::vector<dns::Name> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    names.push_back(corpus[rng.next_below(corpus.size())]);
  }
  return names;
}

resolver::EngineConfig stream_engine(obs::Registry& registry) {
  resolver::EngineConfig config;
  config.obs = obs::SpanContext{nullptr, 0, &registry};
  return config;
}

/// The resolver side and one client for one transport.
struct StreamRig {
  simnet::EventLoop loop;
  simnet::Network net;
  simnet::Host client_host;
  simnet::Host server_host;
  obs::Registry registry;
  resolver::Engine engine;
  std::unique_ptr<resolver::UdpServer> udp;
  std::unique_ptr<resolver::TcpDnsServer> tcp;
  std::unique_ptr<resolver::DotServer> dot;
  std::unique_ptr<resolver::DohServer> doh;
  std::unique_ptr<resolver::DoqServer> doq;
  std::unique_ptr<core::ResolverClient> client;
  Transport transport;

  StreamRig(Transport t, std::uint64_t seed, bool persistent)
      : net(loop, seed),
        client_host(net, "client"),
        server_host(net, "resolver"),
        engine(loop, stream_engine(registry)),
        transport(t) {
    simnet::LinkConfig link;
    link.latency = simnet::ms(10);
    net.connect(client_host.id(), server_host.id(), link);
    const obs::SpanContext obs{nullptr, 0, &registry};
    tlssim::ServerConfig tls;
    tls.chain = tlssim::CertificateChain::cloudflare();
    const std::string sni = "cloudflare-dns.com";
    switch (t) {
      case Transport::kUdp: {
        udp = std::make_unique<resolver::UdpServer>(server_host, engine, 53);
        core::UdpClientConfig c;
        c.obs = obs;
        client = std::make_unique<core::UdpResolverClient>(
            client_host, simnet::Address{server_host.id(), 53}, c);
        break;
      }
      case Transport::kTcp: {
        tcp = std::make_unique<resolver::TcpDnsServer>(
            server_host, engine, resolver::TcpDnsServerConfig{}, 53);
        core::TcpDnsClientConfig c;
        c.obs = obs;
        client = std::make_unique<core::TcpDnsClient>(
            client_host, simnet::Address{server_host.id(), 53}, c);
        break;
      }
      case Transport::kDot: {
        resolver::DotServerConfig s;
        s.tls = tls;
        dot = std::make_unique<resolver::DotServer>(server_host, engine, s,
                                                    853);
        core::DotClientConfig c;
        c.server_name = sni;
        c.obs = obs;
        client = std::make_unique<core::DotClient>(
            client_host, simnet::Address{server_host.id(), 853}, c);
        break;
      }
      case Transport::kDohH1:
      case Transport::kDohH2: {
        resolver::DohServerConfig s;
        s.tls = tls;
        doh = std::make_unique<resolver::DohServer>(server_host, engine, s,
                                                    443);
        core::DohClientConfig c;
        c.server_name = sni;
        c.http_version = t == Transport::kDohH1 ? core::HttpVersion::kHttp1
                                                : core::HttpVersion::kHttp2;
        c.persistent = persistent;
        c.obs = obs;
        client = std::make_unique<core::DohClient>(
            client_host, simnet::Address{server_host.id(), 443}, c);
        break;
      }
      case Transport::kDoq: {
        resolver::DoqServerConfig s;
        s.tls = tls;
        doq = std::make_unique<resolver::DoqServer>(server_host, engine, s,
                                                    8853);
        core::DoqClientConfig c;
        c.server_name = sni;
        c.obs = obs;
        client = std::make_unique<core::DoqClient>(
            client_host, simnet::Address{server_host.id(), 8853}, c);
        break;
      }
    }
  }

  /// Close the client's connection (fresh_connection's per-query teardown
  /// for the transports without a non-persistent mode).
  void disconnect() {
    if (auto* c = dynamic_cast<core::TcpDnsClient*>(client.get())) {
      c->disconnect();
    } else if (auto* c = dynamic_cast<core::DotClient*>(client.get())) {
      c->disconnect();
    } else if (auto* c = dynamic_cast<core::DoqClient*>(client.get())) {
      c->disconnect();
    }
  }
};

/// Connection-level counters of a client's current connection.
struct StackCounters {
  std::uint64_t wire_bytes = 0;
  std::uint64_t packets = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tls_records = 0;
  std::uint64_t tls_overhead = 0;
  std::uint64_t quic_packets = 0;
  std::uint64_t quic_retransmits = 0;
  std::uint64_t retries = 0;
  std::uint64_t udp_retransmits = 0;
  bool connected = false;
  const void* connection = nullptr;  ///< identity, to spot a reconnect
};

void add_tcp(StackCounters& s, const simnet::TcpCounters* tcp) {
  if (tcp == nullptr) return;
  s.connected = true;
  s.connection = tcp;
  s.wire_bytes += tcp->total_wire_bytes();
  s.packets += tcp->total_packets();
  s.tcp_retransmits += tcp->retransmits;
}

void add_tls(StackCounters& s, const tlssim::TlsCounters* tls) {
  if (tls == nullptr) return;
  s.tls_records += tls->records_sent + tls->records_received;
  s.tls_overhead += tls->overhead_bytes();
}

StackCounters stack_counters(const core::ResolverClient* client) {
  StackCounters s;
  if (const auto* c = dynamic_cast<const core::UdpResolverClient*>(client)) {
    s.udp_retransmits = c->retransmissions();
  } else if (const auto* c =
                 dynamic_cast<const core::TcpDnsClient*>(client)) {
    add_tcp(s, c->tcp_counters());
  } else if (const auto* c = dynamic_cast<const core::DotClient*>(client)) {
    add_tcp(s, c->tcp_counters());
    add_tls(s, c->tls_counters());
    s.retries = c->retry_stats().retried_queries;
  } else if (const auto* c = dynamic_cast<const core::DohClient*>(client)) {
    add_tcp(s, c->tcp_counters());
    add_tls(s, c->tls_counters());
    s.retries = c->retry_stats().retried_queries;
  } else if (const auto* c = dynamic_cast<const core::DoqClient*>(client)) {
    if (const quicsim::QuicCounters* q = c->quic_counters()) {
      s.connected = true;
      s.connection = q;
      s.wire_bytes = q->total_wire_bytes();
      s.packets = q->total_packets();
      s.quic_packets = q->total_packets();
      s.quic_retransmits = q->retransmits;
    }
    s.retries = c->retry_stats().retried_queries;
  }
  return s;
}

/// Registry counter for this transport's client family, e.g.
/// client.dot.conn_open.
double client_counter(const StreamRig& rig, const std::string& what) {
  return static_cast<double>(rig.registry.counter(
      std::string("client.") + transport_name(rig.transport) + "." + what));
}

/// Resolve through a client, with a span around the call when traced.
std::uint64_t timed_resolve(core::ResolverClient& client,
                            const dns::Name& name, SpanLog* spans,
                            double& resolve_s) {
  if (spans == nullptr) return client.resolve(name, dns::RType::kA, {});
  spans->open("resolve");
  const std::uint64_t id = client.resolve(name, dns::RType::kA, {});
  resolve_s += spans->close();
  return id;
}

/// Run the loop to idle, with a span around it when traced.
void timed_run(simnet::EventLoop& loop, SpanLog* spans, double& loop_s) {
  if (spans == nullptr) {
    loop.run();
    return;
  }
  spans->open("loop.run");
  loop.run();
  loop_s += spans->close();
}

/// Fold a phase's checked results into the round: outcome counts, digest
/// and CostReport sums. When `tap_bytes` is given (closed loop), resolution
/// i's client-side byte account — its CostReport, or `conn_bytes[i]` for
/// clients whose CostReport carries only DNS bytes — must equal what the
/// tap saw in its window; a mismatch fails the operation.
void check_phase(Round& round, Digest& digest, const StreamRig& rig,
                 const std::vector<dns::Name>& names,
                 const std::vector<std::uint64_t>& ids, const char* label,
                 core::CostReport& cost_sum,
                 const std::vector<std::uint64_t>* tap_bytes = nullptr,
                 const std::vector<std::uint64_t>* conn_bytes = nullptr) {
  std::size_t failed = 0;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const core::ResolutionResult& r = rig.client->result(ids[i]);
    const Outcome outcome = classify(r, names[i]);
    bool bytes_ok = true;
    if (tap_bytes != nullptr) {
      const std::uint64_t client_bytes =
          conn_bytes != nullptr ? (*conn_bytes)[i] : r.cost.wire_bytes;
      bytes_ok = client_bytes == (*tap_bytes)[i];
      if (!bytes_ok) ++mismatched;
    }
    if (outcome != Outcome::kGood || !bytes_ok) ++failed;
    digest.add(bytes_ok ? 1 : 0);
    if (outcome == Outcome::kWrong) {
      ++round.wrong;
      note_violation(round, std::string(label) + ": wrong answer for " +
                                names[i].to_string());
    }
    digest_result(digest, r, outcome);
    cost_sum += r.cost;
  }
  round.failed += failed;
  round.counts[std::string("failed.") + label] += static_cast<double>(failed);
  round.counts["cost_mismatches"] += static_cast<double>(mismatched);
}

/// Per-phase bookkeeping common to warm and fresh phases.
void record_phase(Round& round, const StreamRig& rig, const char* label,
                  std::size_t attempted, double cpu, double wall,
                  std::uint64_t events, std::uint64_t engine_queries) {
  round.cpu_s += cpu;
  round.wall_s += wall;
  round.ops += attempted;
  round.phase_us[label] = cpu * 1e6 / static_cast<double>(attempted);
  Counts& c = round.counts;
  c["res"] += static_cast<double>(attempted);
  if (rig.transport == Transport::kDohH1) c["h1_res"] += static_cast<double>(attempted);
  if (rig.transport == Transport::kDohH2) c["h2_res"] += static_cast<double>(attempted);
  c["events"] += static_cast<double>(events);
  c["engine_queries"] += static_cast<double>(engine_queries);
  c["dns_exchanges"] += static_cast<double>(engine_queries);
}

/// TLS handshakes the client made since `conn0` and `resumed0` were read
/// (plain UDP and TCP make none).
void record_handshakes(Counts& c, const StreamRig& rig, double conn0,
                       double resumed0) {
  if (rig.transport == Transport::kUdp || rig.transport == Transport::kTcp) {
    return;
  }
  const double resumed = client_counter(rig, "resumed_handshakes") - resumed0;
  c["full_handshakes"] += client_counter(rig, "conn_open") - conn0 - resumed;
  c["resumed_handshakes"] += resumed;
}

/// Counter growth from `a` to `b`; after a reconnect `b` belongs to a new
/// connection and only its own counts are known.
void record_stack_delta(Counts& c, StackCounters a, const StackCounters& b) {
  if (a.connection != b.connection) {
    const std::uint64_t retries = a.retries;
    const std::uint64_t udp = a.udp_retransmits;
    a = StackCounters{};
    a.retries = retries;
    a.udp_retransmits = udp;
  }
  c["tcp_retransmits"] += static_cast<double>(b.tcp_retransmits - a.tcp_retransmits);
  c["tls_records"] += static_cast<double>(b.tls_records - a.tls_records);
  c["tls_overhead"] += static_cast<double>(b.tls_overhead - a.tls_overhead);
  c["quic_packets"] += static_cast<double>(b.quic_packets - a.quic_packets);
  c["quic_retransmits"] +=
      static_cast<double>(b.quic_retransmits - a.quic_retransmits);
  c["retries"] += static_cast<double>(b.retries - a.retries);
  c["udp_retransmits"] +=
      static_cast<double>(b.udp_retransmits - a.udp_retransmits);
}

void record_tap(Round& round, const LayerTap& tap) {
  round.counts["tap_packets"] += static_cast<double>(tap.packets());
  round.counts["tap_bytes"] += static_cast<double>(tap.bytes());
  round.counts["pure_acks"] += static_cast<double>(tap.pure_acks());
}

/// Open-loop generator: one query every millisecond of virtual time.
struct OpenLoop {
  simnet::EventLoop* loop;
  core::ResolverClient* client;
  const std::vector<dns::Name>* names;
  std::vector<std::uint64_t>* ids;
  SpanLog* spans;
  double* resolve_s;
  std::size_t next = 0;

  void fire() {
    ids->push_back(timed_resolve(*client, (*names)[next], spans, *resolve_s));
    if (++next < names->size()) {
      loop->schedule_in(simnet::ms(1), [this]() { fire(); });
    }
  }
};

/// warm_stream: per transport, warm one persistent connection during
/// set-up, then time kWarmQueries open-loop resolutions over it.
Round warm_stream_round(std::uint64_t seed, SpanLog* spans) {
  Round round;
  Digest digest;
  LayerTap tap;
  const double setup_start = wall_s();
  std::vector<dns::Name> names;
  {
    SpanScope gen(spans, "input_gen");
    const double gen_start = wall_s();
    names = stream_names(seed, kWarmQueries);
    round.gen_s = wall_s() - gen_start;
  }
  std::vector<std::unique_ptr<StreamRig>> rigs;
  {
    SpanScope setup(spans, "setup");
    const std::vector<dns::Name> warm = stream_names(seed + 1, kWarmupQueries);
    for (const Transport t : kWarmTransports) {
      rigs.push_back(std::make_unique<StreamRig>(t, seed, true));
      StreamRig& rig = *rigs.back();
      std::vector<std::uint64_t> ids;
      double ignored = 0.0;
      OpenLoop gen{&rig.loop, rig.client.get(), &warm, &ids, nullptr,
                   &ignored};
      gen.fire();
      rig.loop.run();
    }
  }
  round.setup_s = wall_s() - setup_start;

  for (auto& rig_ptr : rigs) {
    StreamRig& rig = *rig_ptr;
    const char* label = transport_name(rig.transport);
    SpanScope phase(spans, label);
    std::vector<std::uint64_t> ids;
    ids.reserve(names.size());
    double resolve_s = 0.0, loop_s = 0.0;
    OpenLoop gen{&rig.loop, rig.client.get(), &names, &ids, spans,
                 &resolve_s};
    const StackCounters before = stack_counters(rig.client.get());
    const std::uint64_t events0 = rig.loop.executed();
    const std::uint64_t engine0 = rig.engine.stats().queries;
    const double conn0 = client_counter(rig, "conn_open");
    const double resumed0 = client_counter(rig, "resumed_handshakes");
    TapScope tap_scope(rig.net, tap);
    const std::uint64_t tap0 = tap.bytes();

    const double w0 = wall_s();
    const double c0 = thread_cpu_s();
    rig.loop.schedule_in(0, [&gen]() { gen.fire(); });
    timed_run(rig.loop, spans, loop_s);
    const double cpu = thread_cpu_s() - c0;
    const double wall = wall_s() - w0;

    const StackCounters after = stack_counters(rig.client.get());
    const std::uint64_t engine_queries = rig.engine.stats().queries - engine0;
    record_phase(round, rig, label, ids.size(), cpu, wall,
                 rig.loop.executed() - events0, engine_queries);
    record_handshakes(round.counts, rig, conn0, resumed0);
    record_stack_delta(round.counts, before, after);
    round.counts["resolve_s"] += resolve_s;
    round.counts["loop_s"] += loop_s;

    core::CostReport cost_sum;
    const std::size_t failed0 = round.failed;
    check_phase(round, digest, rig, names, ids, label, cost_sum);
    const std::size_t failed = round.failed - failed0;
    // Lossless link: every query reaches the engine exactly once unless it
    // was lost with its connection, which then counts as a failure.
    if (failed == 0 ? engine_queries != ids.size()
                    : engine_queries > ids.size()) {
      note_violation(round, std::string(label) + ": engine saw " +
                                std::to_string(engine_queries) + " of " +
                                std::to_string(ids.size()) + " queries");
    }
    // UDP cost windows are per datagram; a stream's client-side account
    // is its connection's counters (per-query windows overlap under an open
    // loop). A reconnect replaces the counters, so it is counted instead.
    const std::uint64_t tap_bytes = tap.bytes() - tap0;
    const bool same_conn = before.connection == after.connection;
    const std::uint64_t client_bytes =
        rig.transport == Transport::kUdp ? cost_sum.wire_bytes
                                         : after.wire_bytes - before.wire_bytes;
    if ((rig.transport == Transport::kUdp || same_conn) &&
        client_bytes != tap_bytes) {
      note_violation(round, std::string(label) + ": client bytes " +
                                std::to_string(client_bytes) +
                                " != tap bytes " + std::to_string(tap_bytes));
    }
    if (rig.transport != Transport::kUdp && !same_conn) {
      round.counts["reconnected_phases"] += 1.0;
    }
    round.counts["dns_bytes"] += static_cast<double>(cost_sum.dns_message_bytes);
  }
  record_tap(round, tap);
  round.digest = digest.value;
  return round;
}

/// fresh_connection: every resolution opens, uses and tears down its own
/// connection, one at a time, always with a full handshake.
Round fresh_connection_round(std::uint64_t seed, SpanLog* spans) {
  Round round;
  Digest digest;
  LayerTap tap;
  const double setup_start = wall_s();
  std::vector<dns::Name> names;
  {
    SpanScope gen(spans, "input_gen");
    const double gen_start = wall_s();
    names = stream_names(seed, kFreshQueries);
    round.gen_s = wall_s() - gen_start;
  }
  std::vector<std::unique_ptr<StreamRig>> rigs;
  {
    SpanScope setup(spans, "setup");
    const dns::Name warm = dns::Name::parse("warmup.example.com");
    for (const Transport t : kFreshTransports) {
      rigs.push_back(std::make_unique<StreamRig>(t, seed, false));
      StreamRig& rig = *rigs.back();
      rig.client->resolve(warm, dns::RType::kA, {});
      rig.loop.run();
      rig.disconnect();
      rig.loop.run();
    }
  }
  round.setup_s = wall_s() - setup_start;

  for (auto& rig_ptr : rigs) {
    StreamRig& rig = *rig_ptr;
    const char* label = transport_name(rig.transport);
    SpanScope phase(spans, label);
    std::vector<std::uint64_t> ids;
    ids.reserve(names.size());
    double resolve_s = 0.0, loop_s = 0.0;
    StackCounters conn_sum;  // each connection's counters, read before close
    const std::uint64_t events0 = rig.loop.executed();
    const std::uint64_t engine0 = rig.engine.stats().queries;
    const double conn0 = client_counter(rig, "conn_open");
    const double resumed0 = client_counter(rig, "resumed_handshakes");
    const StackCounters retry0 = stack_counters(rig.client.get());
    // DohClient's CostReport covers the whole fresh connection, teardown
    // included. TcpDnsClient, DotClient and DoqClient put only DNS bytes in
    // theirs, so their account is the connection's counters at completion,
    // checked against the tap up to that point.
    const bool cost_has_wire = rig.transport == Transport::kDohH1 ||
                               rig.transport == Transport::kDohH2;
    std::vector<std::uint64_t> tap_bytes(names.size(), 0);
    std::vector<std::uint64_t> conn_bytes(names.size(), 0);
    TapScope tap_scope(rig.net, tap);

    const double w0 = wall_s();
    const double c0 = thread_cpu_s();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::uint64_t tap0 = tap.bytes();
      ids.push_back(timed_resolve(*rig.client, names[i], spans, resolve_s));
      timed_run(rig.loop, spans, loop_s);
      const StackCounters s = stack_counters(rig.client.get());
      conn_sum.tcp_retransmits += s.tcp_retransmits;
      conn_sum.tls_records += s.tls_records;
      conn_sum.tls_overhead += s.tls_overhead;
      conn_sum.quic_packets += s.quic_packets;
      conn_sum.quic_retransmits += s.quic_retransmits;
      conn_bytes[i] = s.wire_bytes;
      tap_bytes[i] = tap.bytes() - tap0;
      rig.disconnect();
      timed_run(rig.loop, spans, loop_s);
      if (cost_has_wire) tap_bytes[i] = tap.bytes() - tap0;
    }
    const double cpu = thread_cpu_s() - c0;
    const double wall = wall_s() - w0;

    const std::uint64_t engine_queries = rig.engine.stats().queries - engine0;
    record_phase(round, rig, label, ids.size(), cpu, wall,
                 rig.loop.executed() - events0, engine_queries);
    record_handshakes(round.counts, rig, conn0, resumed0);
    const StackCounters retry1 = stack_counters(rig.client.get());
    round.counts["retries"] +=
        static_cast<double>(retry1.retries - retry0.retries);
    round.counts["tcp_retransmits"] +=
        static_cast<double>(conn_sum.tcp_retransmits);
    round.counts["tls_records"] += static_cast<double>(conn_sum.tls_records);
    round.counts["quic_packets"] += static_cast<double>(conn_sum.quic_packets);
    round.counts["quic_retransmits"] +=
        static_cast<double>(conn_sum.quic_retransmits);
    round.counts["resolve_s"] += resolve_s;
    round.counts["loop_s"] += loop_s;

    core::CostReport cost_sum;
    const std::size_t failed0 = round.failed;
    check_phase(round, digest, rig, names, ids, label, cost_sum, &tap_bytes,
                cost_has_wire ? nullptr : &conn_bytes);
    const std::size_t failed = round.failed - failed0;
    if (failed == 0 ? engine_queries != ids.size()
                    : engine_queries > ids.size()) {
      note_violation(round, std::string(label) + ": engine saw " +
                                std::to_string(engine_queries) + " of " +
                                std::to_string(ids.size()) + " queries");
    }
    round.counts["tls_overhead"] += static_cast<double>(
        cost_has_wire ? cost_sum.tls_overhead_bytes : conn_sum.tls_overhead);
    round.counts["dns_bytes"] += static_cast<double>(cost_sum.dns_message_bytes);
    // Closed loop: the per-resolution windows are disjoint, so the h2
    // management bytes add up (under an open loop they would overlap).
    if (rig.transport == Transport::kDohH2) {
      round.counts["h2_mgmt_bytes"] +=
          static_cast<double>(cost_sum.http_mgmt_bytes);
    }
  }
  record_tap(round, tap);
  round.digest = digest.value;
  return round;
}


/// Fold a shard's arena accounting into a round's counts.
void record_memory(Counts& c, const simnet::ShardMemoryStats& mem,
                   std::size_t workers) {
  c["arena_allocs"] += static_cast<double>(mem.arena_allocs);
  c["freelist_hits"] += static_cast<double>(mem.freelist_hits);
  c["global_allocs"] += static_cast<double>(mem.global_allocs);
  c["arena_mb_per_worker"] = std::max(
      c["arena_mb_per_worker"], static_cast<double>(mem.arena_bytes) /
                                    (1024.0 * 1024.0) /
                                    static_cast<double>(workers));
}

// ---------------------------------------------------------------------------
// page_load: fig6 from the university vantage under U/CF and H/CF.

constexpr std::array<const char*, 2> kPageConfigs = {"U/CF", "H/CF"};
constexpr std::size_t kPagesPerRound = 32;
constexpr std::size_t kPagesPerShard = 4;  ///< 8 ranges x 2 configs = 16 shards
constexpr int kLoadsPerPage = 3;
/// Fixed worker pool (capped by the machine), recorded with every run.
constexpr std::size_t kPageWorkers = 4;

/// The resolver client the page loader sees: forwards to the real one and
/// remembers every query, so each answer can be checked afterwards; traced
/// runs also time each resolve() call.
class RecordingClient final : public core::ResolverClient {
 public:
  RecordingClient(core::ResolverClient& inner, SpanLog* spans,
                  double& resolve_s)
      : inner_(inner), spans_(spans), resolve_s_(resolve_s) {}

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        core::ResolveCallback callback) override {
    if (spans_ != nullptr) spans_->open("resolve");
    const std::uint64_t id = inner_.resolve(name, type, std::move(callback));
    if (spans_ != nullptr) resolve_s_ += spans_->close();
    queries_.push_back({name, id});
    return id;
  }
  const core::ResolutionResult& result(std::uint64_t id) const override {
    return inner_.result(id);
  }
  std::size_t completed() const override { return inner_.completed(); }

  const std::vector<std::pair<dns::Name, std::uint64_t>>& queries() const {
    return queries_;
  }

 private:
  core::ResolverClient& inner_;
  SpanLog* spans_;
  double& resolve_s_;
  std::vector<std::pair<dns::Name, std::uint64_t>> queries_;
};

// detlint: hot-slot
struct alignas(64) PageShard {
  double cpu_s = 0.0;
  std::size_t loads = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;
  std::uint64_t digest = 0;
  std::string violation;
  Counts counts;
  SpanLog spans;
};

PageShard page_shard(const std::vector<workload::Page>& pages,
                     std::size_t shard, std::uint64_t seed, bool traced) {
  PageShard out;
  out.spans = SpanLog(static_cast<std::uint32_t>(shard + 1));
  SpanLog* spans = traced ? &out.spans : nullptr;
  SpanScope shard_span(spans, "shard");
  const double c0 = thread_cpu_s();
  const std::string config = kPageConfigs[shard % kPageConfigs.size()];
  const std::size_t first = (shard / kPageConfigs.size()) * kPagesPerShard;
  const std::uint64_t shard_seed = seed * 1000003ULL + shard / kPageConfigs.size();
  const browser::Vantage vantage = browser::Vantage::university();
  Digest digest;
  double resolve_s = 0.0, loop_s = 0.0;
  {
    simnet::EventLoop loop;
    simnet::Network net(loop, shard_seed);
    simnet::Host browser_host(net, "browser");
    simnet::Host resolver_host(net, "resolver");
    obs::Registry registry;
    const obs::SpanContext obs{nullptr, 0, &registry};
    const bool doh = config[0] == 'H';
    simnet::LinkConfig resolver_link;
    resolver_link.latency = vantage.cloudflare_latency;
    net.connect(browser_host.id(), resolver_host.id(), resolver_link);
    LayerTap tap;
    simnet::CountingTap resolver_tap(browser_host.id(), resolver_host.id());
    TapScope all_links(net, tap);
    TapScope resolver_link_tap(net, resolver_tap);

    resolver::EngineConfig engine_config;
    engine_config.obs = obs;
    engine_config.upstream = vantage.cloud_resolver;
    engine_config.seed = shard_seed ^ 0xabcd;
    resolver::Engine engine(loop, engine_config);
    resolver::UdpServer udp_server(resolver_host, engine, 53);
    resolver::DohServerConfig doh_config;
    doh_config.tls.chain = tlssim::CertificateChain::cloudflare();
    doh_config.frontend_delay = simnet::ms(4);
    resolver::DohServer doh_server(resolver_host, engine, doh_config, 443);

    std::unique_ptr<core::ResolverClient> inner;
    if (doh) {
      core::DohClientConfig c;
      c.server_name = "cloudflare-dns.com";
      c.obs = obs;
      inner = std::make_unique<core::DohClient>(
          browser_host, simnet::Address{resolver_host.id(), 443}, c);
    } else {
      core::UdpClientConfig c;
      c.obs = obs;
      inner = std::make_unique<core::UdpResolverClient>(
          browser_host, simnet::Address{resolver_host.id(), 53}, c);
    }
    RecordingClient client(*inner, spans, resolve_s);

    browser::WebFarmConfig farm_config;
    farm_config.base_latency = vantage.origin_base_latency;
    farm_config.latency_jitter = vantage.origin_latency_jitter;
    farm_config.bandwidth_bps = vantage.access_bandwidth_bps;
    farm_config.seed = shard_seed;
    browser::WebFarm farm(net, browser_host, farm_config);

    for (std::size_t p = first; p < first + kPagesPerShard && p < pages.size();
         ++p) {
      for (int load = 0; load < kLoadsPerPage; ++load) {
        browser::PageLoadConfig loader_config;
        loader_config.obs = obs;
        browser::PageLoader loader(browser_host, farm, client, loader_config);
        bool finished = false;
        browser::PageLoadResult r;
        loader.load(pages[p], [&](const browser::PageLoadResult& result) {
          r = result;
          finished = true;
        });
        timed_run(loop, spans, loop_s);
        ++out.loads;
        const bool ok = finished && r.success;
        if (!ok) ++out.failed;
        digest.add(ok ? 1 : 0);
        digest.add(static_cast<std::uint64_t>(r.onload_time()));
        digest.add(static_cast<std::uint64_t>(r.cumulative_dns));
        digest.add(r.dns_queries);
        digest.add(r.objects_fetched);
        out.counts["dns_queries"] += static_cast<double>(r.dns_queries);
        out.counts["objects"] += static_cast<double>(r.objects_fetched);
        out.counts["fetch_failures"] += static_cast<double>(r.fetch_failures);
      }
    }
    out.cpu_s = thread_cpu_s() - c0;

    // Checks (outside the shard's CPU figure).
    core::CostReport cost_sum;
    for (const auto& [name, id] : client.queries()) {
      const core::ResolutionResult& r = client.result(id);
      const Outcome outcome = classify(r, name);
      if (outcome == Outcome::kWrong) {
        ++out.wrong;
        if (out.violation.empty()) {
          out.violation = config + ": wrong answer for " + name.to_string();
        }
      }
      digest_result(digest, r, outcome);
      cost_sum += r.cost;
    }
    const double resolutions = static_cast<double>(client.queries().size());
    if (static_cast<double>(engine.stats().queries) != resolutions &&
        out.violation.empty()) {
      out.violation = config + ": engine saw " +
                      std::to_string(engine.stats().queries) + " of " +
                      std::to_string(client.queries().size()) + " queries";
    }
    // The resolver link carries only DNS: UDP's per-query costs add up to
    // it; a persistent DoH connection's counters cover it.
    const StackCounters stack = stack_counters(inner.get());
    const std::uint64_t client_bytes =
        doh ? stack.wire_bytes : cost_sum.wire_bytes;
    if (client_bytes != resolver_tap.bytes() && out.violation.empty()) {
      out.violation = config + ": resolver-link client bytes " +
                      std::to_string(client_bytes) + " != tap bytes " +
                      std::to_string(resolver_tap.bytes());
    }
    Counts& c = out.counts;
    c["res"] += resolutions;
    if (doh) c["h2_res"] += resolutions;
    c["events"] += static_cast<double>(loop.executed());
    c["engine_queries"] += static_cast<double>(engine.stats().queries);
    c["dns_exchanges"] += static_cast<double>(engine.stats().queries);
    c["tap_packets"] += static_cast<double>(tap.packets());
    c["tap_bytes"] += static_cast<double>(tap.bytes());
    c["pure_acks"] += static_cast<double>(tap.pure_acks());
    c["tcp_retransmits"] += static_cast<double>(stack.tcp_retransmits);
    c["tls_records"] += static_cast<double>(stack.tls_records);
    c["tls_overhead"] += static_cast<double>(stack.tls_overhead);
    c["retries"] += static_cast<double>(stack.retries);
    c["udp_retransmits"] += static_cast<double>(stack.udp_retransmits);
    // Every TCP connection here carries TLS (DoH or an HTTPS origin), and
    // neither side keeps a session cache.
    c["full_handshakes"] += static_cast<double>(tap.connects());
    c["resumed_handshakes"] +=
        static_cast<double>(registry.counter("client.doh_h2.resumed_handshakes"));
    c["dns_bytes"] += static_cast<double>(cost_sum.dns_message_bytes);
    c["resolve_s"] += resolve_s;
    c["loop_s"] += loop_s;
    c["shard_cpu_max"] = out.cpu_s;
    c["cpu." + config] += out.cpu_s;
    c["loads." + config] += static_cast<double>(out.loads);
  }
  out.digest = digest.value;
  return out;
}

/// fig6's pages: the top ranks of the paper's Alexa snapshot. The page set
/// is fixed so CPU per page compares across seeds; the seed drives every
/// random draw of the simulation (origin latencies, upstream latency).
std::vector<workload::Page> page_inputs() {
  workload::AlexaPageModel model;
  std::vector<workload::Page> pages;
  pages.reserve(kPagesPerRound);
  for (std::size_t rank = 1; rank <= kPagesPerRound; ++rank) {
    pages.push_back(model.page(rank));
  }
  return pages;
}

Round page_load_round(std::uint64_t seed, SpanLog* spans, std::size_t jobs) {
  Round round;
  const double setup_start = wall_s();
  std::vector<workload::Page> pages;
  {
    SpanScope gen(spans, "input_gen");
    pages = page_inputs();
  }
  round.gen_s = wall_s() - setup_start;
  round.setup_s = round.gen_s;

  const std::size_t shards =
      (kPagesPerRound / kPagesPerShard) * kPageConfigs.size();
  simnet::ShardMemoryStats mem;
  const bool traced = spans != nullptr;
  std::vector<PageShard> results;
  {
    SpanScope run(spans, "run_sharded");
    const double w0 = wall_s();
    results = bench::run_sharded<PageShard>(
        shards, jobs,
        [&pages, seed, traced](std::size_t i) {
          return page_shard(pages, i, seed, traced);
        },
        &mem);
    round.wall_s = wall_s() - w0;
  }
  Digest digest;
  double max_cpu = 0.0;
  for (const PageShard& shard : results) {
    digest.add(shard.digest);
    round.cpu_s += shard.cpu_s;
    round.ops += shard.loads;
    round.failed += shard.failed;
    round.wrong += shard.wrong;
    if (!shard.violation.empty()) note_violation(round, shard.violation);
    max_cpu = std::max(max_cpu, shard.cpu_s);
    for (const auto& [key, value] : shard.counts) {
      if (key != "shard_cpu_max") round.counts[key] += value;
    }
    if (spans != nullptr) spans->absorb(shard.spans);
  }
  for (const char* config : kPageConfigs) {
    const std::string c = config;
    round.phase_us[c] = ratio(round.counts["cpu." + c] * 1e6,
                              round.counts["loads." + c]);
  }
  round.counts["shard_cpu_max"] = max_cpu;
  round.counts["shards"] = static_cast<double>(shards);
  round.counts["workers"] = static_cast<double>(std::min(jobs, shards));
  record_memory(round.counts, mem, std::max<std::size_t>(1, std::min(jobs, shards)));
  round.digest = digest.value;
  return round;
}

// ---------------------------------------------------------------------------
// tier_overload: overload_matrix's population at 2x nominal load against the
// full-control RecursiveTier, with 1% Gilbert-Elliott loss on client links.

constexpr std::size_t kTierClients = 24;  ///< even = DoH/h2, odd = UDP
constexpr std::size_t kTierNames = 48;
constexpr double kTierNominalQps = 300.0;
constexpr double kTierLoadFactor = 2.0;
constexpr std::int64_t kTierSeconds = 20;  ///< virtual seconds per round
constexpr double kTierLoss = 0.01;
/// Client retries per query. overload_matrix's 2 let a UDP stub give up
/// inside one loss burst (a quiet client's link stays in the bad state
/// across its 1 s retries), so some seeds lost a query or two per round to
/// the loss model alone. With 8, every query ends answered or REFUSED.
constexpr int kTierMaxRetries = 8;

/// overload_matrix's "full" rung: bounded queue, AIMD admission, per-client
/// fairness and the server-side retry budget.
resolver::TierConfig full_tier(obs::Registry& registry) {
  resolver::TierConfig config;
  config.obs = obs::SpanContext{nullptr, 0, &registry};
  config.workers = 1;
  config.cache_entries = 4096;
  config.hit_processing = simnet::us(2000);
  config.coalesce = true;
  config.bound_queue = true;
  config.queue_capacity = 64;
  config.deadline = simnet::seconds(1);
  config.expected_service = simnet::ms(3);
  config.admission_enabled = true;
  config.admission.min_limit = 12;
  config.admission.max_limit = 512;
  config.admission.initial_limit = 64;
  config.admission.window = 32;
  config.admission.inflate_permille = 6000;
  config.admission.decrease_permille = 700;
  config.admission.increase_step = 2;
  config.fairness_enabled = true;
  config.fairness.rate_milli = 35000;
  config.fairness.burst_milli = 50000;
  config.retry_budget_enabled = true;
  config.retry_ratio_permille = 100;
  config.retry_reserve_milli = 10000;
  config.retry_cap_milli = 100000;
  config.retry_window = simnet::seconds(2);
  return config;
}

/// Gilbert-Elliott parameters whose stationary loss rate is `loss`: bursts
/// last ~3.3 packets and drop half their packets.
simnet::GilbertElliott bursty_loss(double loss) {
  simnet::GilbertElliott ge;
  ge.enabled = true;
  ge.p_bad_to_good = 0.3;
  ge.loss_good = 0.0;
  ge.loss_bad = 0.5;
  const double bad_share = loss / ge.loss_bad;
  ge.p_good_to_bad = bad_share * ge.p_bad_to_good / (1.0 - bad_share);
  return ge;
}

/// Open-loop generator over the population's arrival schedule.
struct Arrivals {
  simnet::EventLoop* loop;
  const std::vector<workload::QueryEvent>* events;
  const std::vector<dns::Name>* names;  ///< per event
  std::vector<core::ResolverClient*>* stubs;
  std::vector<std::uint64_t>* ids;
  SpanLog* spans;
  double* resolve_s;
  simnet::TimeUs base = 0;
  std::size_t next = 0;

  void fire() {
    const workload::QueryEvent& ev = (*events)[next];
    (*ids)[next] = timed_resolve(*(*stubs)[ev.client], (*names)[next], spans,
                                 *resolve_s);
    if (++next < events->size()) {
      loop->schedule_at(base + (*events)[next].at, [this]() { fire(); });
    }
  }
};

Round tier_overload_round(std::uint64_t seed, SpanLog* spans) {
  Round round;
  const double setup_start = wall_s();
  workload::PopulationConfig pop;
  pop.clients = kTierClients;
  pop.names = kTierNames;
  pop.zipf_exponent = 1.0;
  pop.rate_qps = kTierNominalQps * kTierLoadFactor;
  pop.duration = simnet::seconds(kTierSeconds);
  pop.seed = seed ^ 0x94d049bb133111ebULL;
  const workload::PopulationWorkload population(pop);
  std::vector<workload::QueryEvent> events;
  std::vector<dns::Name> names;
  {
    SpanScope gen(spans, "input_gen");
    events = population.generate();
    names.reserve(events.size());
    for (const auto& ev : events) names.push_back(population.name_for(ev.name_rank));
    round.gen_s = wall_s() - setup_start;
  }

  if (spans != nullptr) spans->open("setup");
  simnet::EventLoop loop;
  simnet::Network net(loop, seed);
  simnet::Host server_host(net, "tier");
  obs::Registry registry;
  const obs::SpanContext obs{nullptr, 0, &registry};
  std::vector<std::unique_ptr<simnet::Host>> hosts;
  for (std::size_t c = 0; c < kTierClients; ++c) {
    hosts.push_back(std::make_unique<simnet::Host>(net, "c" + std::to_string(c)));
    simnet::LinkConfig link;
    link.latency = simnet::ms(5);
    link.gilbert_elliott = bursty_loss(kTierLoss);
    net.connect(hosts[c]->id(), server_host.id(), link);
  }
  resolver::EngineConfig engine_config;
  engine_config.obs = obs;
  engine_config.ttl = 3;
  engine_config.upstream.cache_hit_ratio = 1.0;
  engine_config.upstream.processing = simnet::ms(8);
  engine_config.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  resolver::Engine engine(loop, engine_config);
  resolver::RecursiveTier tier(loop, engine, full_tier(registry));
  resolver::UdpServer udp_server(server_host, tier, 53);
  resolver::DohServerConfig doh_config;
  doh_config.tls.chain = tlssim::CertificateChain::generic("tier.resolver");
  resolver::DohServer doh_server(server_host, tier, doh_config, 443);

  std::vector<std::unique_ptr<core::ResolverClient>> clients;
  std::vector<core::ResolverClient*> stubs;
  for (std::size_t c = 0; c < kTierClients; ++c) {
    if (c % 2 == 0) {
      core::DohClientConfig cfg;
      cfg.obs = obs;
      cfg.server_name = "tier.resolver";
      cfg.http_version = core::HttpVersion::kHttp2;
      cfg.retry.max_retries = kTierMaxRetries;
      cfg.retry.backoff_initial = simnet::ms(200);
      cfg.retry.backoff_max = simnet::seconds(1);
      cfg.retry.query_timeout = simnet::seconds(1);
      cfg.retry.seed = seed ^ (0xbf58476d1ce4e5b9ULL * (c + 1));
      clients.push_back(std::make_unique<core::DohClient>(
          *hosts[c], simnet::Address{server_host.id(), 443}, cfg));
    } else {
      core::UdpClientConfig cfg;
      cfg.obs = obs;
      cfg.timeout = simnet::seconds(1);
      cfg.max_retries = kTierMaxRetries;
      clients.push_back(std::make_unique<core::UdpResolverClient>(
          *hosts[c], simnet::Address{server_host.id(), 53}, cfg));
    }
    stubs.push_back(clients.back().get());
  }
  // Warm-up: open every DoH connection before the timed schedule starts.
  const dns::Name warm = dns::Name::parse("warmup.pop.example.com");
  for (std::size_t c = 0; c < kTierClients; c += 2) {
    stubs[c]->resolve(warm, dns::RType::kA, {});
  }
  loop.run();
  LayerTap tap;
  TapScope tap_scope(net, tap);
  std::vector<StackCounters> before;
  for (const auto* stub : stubs) before.push_back(stack_counters(stub));
  const std::uint64_t events0 = loop.executed();
  const std::uint64_t engine0 = engine.stats().queries;
  const resolver::TierStats tier0 = tier.stats();
  round.setup_s = wall_s() - setup_start;
  if (spans != nullptr) spans->close();

  std::vector<std::uint64_t> ids(events.size(), 0);
  double resolve_s = 0.0, loop_s = 0.0;
  Arrivals gen{&loop, &events, &names, &stubs, &ids, spans, &resolve_s,
               loop.now(), 0};
  {
    SpanScope phase(spans, "population");
    const double w0 = wall_s();
    const double c0 = thread_cpu_s();
    if (!events.empty()) {
      loop.schedule_at(gen.base + events[0].at, [&gen]() { gen.fire(); });
    }
    timed_run(loop, spans, loop_s);
    round.cpu_s = thread_cpu_s() - c0;
    round.wall_s = wall_s() - w0;
  }
  round.ops = events.size();
  round.phase_us["population"] = ratio(round.cpu_s * 1e6, static_cast<double>(round.ops));

  // A shed query gets REFUSED: the tier's overload control working as
  // designed, so it is a handled operation, not a failed one. Every refusal
  // a client sees must be backed by a tier shed (a shed can also be retried
  // to an answer, so sheds may exceed refusals).
  Digest digest;
  std::size_t refused = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const core::ResolutionResult& r = stubs[events[i].client]->result(ids[i]);
    const Outcome outcome = classify(r, names[i]);
    if (outcome == Outcome::kRefused) ++refused;
    if (outcome != Outcome::kGood && outcome != Outcome::kRefused) ++round.failed;
    if (outcome == Outcome::kWrong) {
      ++round.wrong;
      note_violation(round, "wrong answer for " + names[i].to_string());
    }
    digest_result(digest, r, outcome);
  }
  Counts& c = round.counts;
  for (std::size_t i = 0; i < stubs.size(); ++i) {
    record_stack_delta(c, before[i], stack_counters(stubs[i]));
  }
  const resolver::TierStats& t = tier.stats();
  c["res"] += static_cast<double>(events.size());
  for (const auto& ev : events) {
    if (ev.client % 2 == 0) c["h2_res"] += 1.0;
  }
  c["events"] += static_cast<double>(loop.executed() - events0);
  c["engine_queries"] += static_cast<double>(engine.stats().queries - engine0);
  c["tier_requests"] += static_cast<double>(t.requests - tier0.requests);
  c["dns_exchanges"] += static_cast<double>(t.requests - tier0.requests);
  c["tier_cache_hits"] += static_cast<double>(t.cache_hits - tier0.cache_hits);
  c["tier_cache_misses"] +=
      static_cast<double>(t.cache_misses - tier0.cache_misses);
  c["tier_sheds"] += static_cast<double>(t.sheds() - tier0.sheds());
  c["tier_refused"] += static_cast<double>(refused);
  if (refused > t.sheds() - tier0.sheds()) {
    note_violation(round, std::to_string(refused) + " REFUSED results but " +
                              std::to_string(t.sheds() - tier0.sheds()) +
                              " tier sheds");
  }
  if (const stats::Cdf* wait = registry.histogram("tier.queue_wait_ms");
      wait != nullptr && !wait->empty()) {
    c["tier_queue_wait_p99_ms"] = wait->quantile(0.99);
  }
  c["tap_packets"] += static_cast<double>(tap.packets());
  c["tap_bytes"] += static_cast<double>(tap.bytes());
  c["pure_acks"] += static_cast<double>(tap.pure_acks());
  c["tap_dropped"] += static_cast<double>(tap.dropped());
  // Every TCP connection here is DoH over TLS: timed-phase SYNs are
  // reconnects, each with a full handshake.
  c["full_handshakes"] += static_cast<double>(tap.connects());
  c["resolve_s"] += resolve_s;
  c["loop_s"] += loop_s;
  digest.add(t.sheds() - tier0.sheds());
  digest.add(refused);
  digest.add(tap.dropped());
  round.digest = digest.value;
  return round;
}


// ---------------------------------------------------------------------------
// Replays (traced run only): each layer's public codec functions timed on
// this workload's own messages, outside the simulation.

/// What the replays run over: the workload's DNS names, and for page_load
/// the sizes of the objects its pages fetch.
struct ReplayInputs {
  std::vector<dns::Name> names;
  std::vector<std::size_t> object_bytes;
  bool cold_hpack = false;  ///< every resolution on a new connection
};

/// Keeps a replay's results observable so the work cannot be elided.
std::uint64_t g_sink = 0;

/// Run `pass` (which performs `ops` operations) until at least `budget_s`
/// of thread CPU has passed; returns ns per operation.
template <typename Pass>
double replay_ns(std::size_t ops, double budget_s, Pass&& pass) {
  pass();  // warm caches and allocator
  std::size_t done = 0;
  const double c0 = thread_cpu_s();
  double elapsed = 0.0;
  do {
    pass();
    done += ops;
    elapsed = thread_cpu_s() - c0;
  } while (elapsed < budget_s);
  return elapsed * 1e9 / static_cast<double>(done);
}

std::vector<http2::HeaderField> doh_request_headers(std::size_t body) {
  return {{":method", "POST"},
          {":scheme", "https"},
          {":authority", "cloudflare-dns.com"},
          {":path", "/dns-query"},
          {"accept", "application/dns-message"},
          {"accept-encoding", "gzip, deflate, br"},
          {"accept-language", "en-US,en;q=0.5"},
          {"user-agent",
           "Mozilla/5.0 (X11; Linux x86_64; rv:66.0) Gecko/20100101 "
           "Firefox/66.0"},
          {"content-type", "application/dns-message"},
          {"content-length", std::to_string(body)}};
}

std::vector<http2::HeaderField> doh_response_headers(std::size_t body) {
  return {{":status", "200"},
          {"content-type", "application/dns-message"},
          {"content-length", std::to_string(body)},
          {"cache-control", "max-age=300"}};
}

Counts run_replays(const ReplayInputs& in, SpanLog* spans) {
  constexpr double kBudget = 0.05;  // CPU seconds per replay
  Counts out;
  std::vector<dns::Message> queries, responses;
  std::vector<dns::Bytes> query_wire, response_wire;
  for (std::size_t i = 0; i < in.names.size(); ++i) {
    queries.push_back(dns::Message::make_query(
        static_cast<std::uint16_t>(i), in.names[i]));
    responses.push_back(dns::Message::make_response(
        queries.back(), {dns::ResourceRecord::a(in.names[i], kAnswerAddress)}));
    query_wire.push_back(queries.back().encode());
    response_wire.push_back(responses.back().encode());
  }
  const std::size_t n = in.names.size();

  {
    SpanScope span(spans, "replay.dns");
    out["dns.encode_ns"] = replay_ns(n, kBudget, [&]() {
      for (const auto& q : queries) g_sink += q.encode().size();
    });
    out["dns.decode_ns"] = replay_ns(n, kBudget, [&]() {
      for (const auto& w : response_wire) {
        g_sink += dns::Message::decode(w).answers.size();
      }
    });
  }

  {
    SpanScope span(spans, "replay.http2");
    std::vector<std::vector<http2::HeaderField>> req, resp;
    for (std::size_t i = 0; i < n; ++i) {
      req.push_back(doh_request_headers(query_wire[i].size()));
      resp.push_back(doh_response_headers(response_wire[i].size()));
    }
    out["http2.hpack_encode_ns"] = replay_ns(n, kBudget, [&]() {
      http2::HpackEncoder encoder;
      for (const auto& h : req) g_sink += encoder.encode(h).size();
    });
    out["http2.hpack_encode_cold_ns"] = replay_ns(n, kBudget, [&]() {
      for (const auto& h : req) {
        http2::HpackEncoder encoder;
        g_sink += encoder.encode(h).size();
      }
    });
    // Warm tables throughout, unless every resolution opens a connection.
    std::vector<dns::Bytes> blocks;
    std::size_t block_bytes = 0;
    {
      http2::HpackEncoder req_enc, resp_enc;
      for (std::size_t i = 0; i < n; ++i) {
        if (in.cold_hpack) req_enc = http2::HpackEncoder{};
        if (in.cold_hpack) resp_enc = http2::HpackEncoder{};
        blocks.push_back(req_enc.encode(req[i]));
        block_bytes += blocks.back().size() + resp_enc.encode(resp[i]).size();
      }
    }
    out["http2.header_bytes_per_res"] =
        static_cast<double>(block_bytes) / static_cast<double>(n);
    out["http2.hpack_decode_ns"] = replay_ns(n, kBudget, [&]() {
      http2::HpackDecoder decoder;
      for (const auto& b : blocks) {
        if (in.cold_hpack) decoder = http2::HpackDecoder{};
        g_sink += decoder.decode(b).size();
      }
    });
    // A DoH/h2 request: HEADERS then DATA; each frame encoded and parsed.
    std::vector<http2::Frame> frames;
    for (std::size_t i = 0; i < n; ++i) {
      http2::Frame headers;
      headers.type = http2::FrameType::kHeaders;
      headers.flags = http2::kFlagEndHeaders;
      headers.stream_id = static_cast<std::uint32_t>(2 * i + 1);
      headers.payload = blocks[i];
      http2::Frame data;
      data.type = http2::FrameType::kData;
      data.flags = http2::kFlagEndStream;
      data.stream_id = headers.stream_id;
      data.payload = query_wire[i];
      frames.push_back(std::move(headers));
      frames.push_back(std::move(data));
    }
    out["http2.frame_ns"] = replay_ns(frames.size(), kBudget, [&]() {
      http2::FrameReader reader;
      for (const auto& f : frames) {
        reader.feed(http2::encode_frame(f));
        while (auto parsed = reader.next()) g_sink += parsed->payload.size();
      }
    });
  }

  {
    SpanScope span(spans, "replay.http1");
    std::vector<http1::Request> requests;
    std::vector<dns::Bytes> response_bytes;
    if (!in.object_bytes.empty()) {
      for (std::size_t i = 0; i < in.object_bytes.size(); ++i) {
        http1::Request r;
        r.target = "/obj" + std::to_string(i);
        r.headers.add("host", in.names[i % n].to_string());
        requests.push_back(std::move(r));
        http1::Response resp;
        resp.headers.add("content-type", "application/octet-stream");
        resp.body.assign(in.object_bytes[i], 0x5a);
        response_bytes.push_back(http1::serialize(resp));
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        http1::Request r;
        r.method = "POST";
        r.target = "/dns-query";
        r.headers.add("host", "cloudflare-dns.com");
        r.headers.add("accept", "application/dns-message");
        r.headers.add("content-type", "application/dns-message");
        r.body = query_wire[i];
        requests.push_back(std::move(r));
        http1::Response resp;
        resp.headers.add("content-type", "application/dns-message");
        resp.headers.add("cache-control", "max-age=300");
        resp.body = response_wire[i];
        response_bytes.push_back(http1::serialize(resp));
      }
    }
    out["http1.request_ns"] = replay_ns(requests.size(), kBudget, [&]() {
      for (const auto& r : requests) g_sink += http1::serialize(r).size();
    });
    out["http1.response_parse_ns"] =
        replay_ns(response_bytes.size(), kBudget, [&]() {
          http1::Parser parser(http1::Parser::Mode::kResponse);
          for (const auto& b : response_bytes) {
            parser.feed(b);
            while (auto r = parser.next_response()) g_sink += r->body.size();
          }
        });
  }

  {
    SpanScope span(spans, "replay.tlssim");
    const tlssim::CertificateChain chain = tlssim::CertificateChain::cloudflare();
    out["tlssim.handshake_codec_us"] =
        replay_ns(1, kBudget, [&]() {
          dns::ByteWriter w;
          tlssim::ClientHello ch;
          ch.sni = "cloudflare-dns.com";
          ch.alpn = {"h2", "http/1.1"};
          tlssim::encode_client_hello(w, ch);
          tlssim::encode_server_hello(w, tlssim::ServerHello{});
          tlssim::encode_plain(w, tlssim::HsType::kEncryptedExtensions,
                               tlssim::kEncryptedExtensionsBody);
          tlssim::CertificateMsg cert;
          cert.subject = chain.subject;
          cert.certificate_count =
              static_cast<std::uint8_t>(chain.certificate_count);
          cert.chain_bytes = static_cast<std::uint32_t>(chain.wire_bytes);
          tlssim::encode_certificate(w, cert);
          tlssim::encode_plain(w, tlssim::HsType::kCertificateVerify,
                               tlssim::kCertificateVerifyBody);
          tlssim::encode_plain(w, tlssim::HsType::kFinished,
                               tlssim::kFinishedBody);
          tlssim::encode_plain(w, tlssim::HsType::kFinished,
                               tlssim::kFinishedBody);
          tlssim::encode_new_session_ticket(
              w, tlssim::NewSessionTicketMsg{dns::Bytes(32, 7)});
          const dns::Bytes flight = w.take();
          dns::ByteReader r(flight);
          while (!r.exhausted()) {
            g_sink += static_cast<std::uint64_t>(tlssim::decode_handshake(r).type);
          }
        }) / 1000.0;
  }

  {
    SpanScope span(spans, "replay.quicsim");
    std::vector<quicsim::Frame> frames;
    for (std::size_t i = 0; i < n; ++i) {
      quicsim::StreamFrame f;
      f.stream_id = 4 * i;
      f.fin = true;
      dns::ByteWriter w;
      w.u16(static_cast<std::uint16_t>(query_wire[i].size()));
      w.bytes(query_wire[i]);
      f.data = w.take();
      frames.emplace_back(std::move(f));
      frames.emplace_back(quicsim::AckFrame{{i, i + 1}});
    }
    out["quicsim.frame_ns"] = replay_ns(frames.size(), kBudget, [&]() {
      dns::ByteWriter w;
      for (const auto& f : frames) quicsim::encode_frame(w, f);
      const dns::Bytes bytes = w.take();
      dns::ByteReader r(bytes);
      while (!r.exhausted()) g_sink += quicsim::decode_frame(r).index();
    });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rounds, checks and reports.

struct Workload {
  const char* name;
  const char* why;
  Round (*round)(std::uint64_t seed, SpanLog* spans, std::size_t jobs);
  ReplayInputs (*replay_inputs)(std::uint64_t seed);
  bool sharded;  ///< runs its own shards on the worker pool
};

Round warm_adapter(std::uint64_t seed, SpanLog* spans, std::size_t) {
  return warm_stream_round(seed, spans);
}
Round fresh_adapter(std::uint64_t seed, SpanLog* spans, std::size_t) {
  return fresh_connection_round(seed, spans);
}
Round tier_adapter(std::uint64_t seed, SpanLog* spans, std::size_t) {
  return tier_overload_round(seed, spans);
}

ReplayInputs stream_replay(std::uint64_t seed) {
  return {stream_names(seed, 2000), {}, false};
}
ReplayInputs fresh_replay(std::uint64_t seed) {
  return {stream_names(seed, 2000), {}, true};
}
ReplayInputs page_replay(std::uint64_t) {
  ReplayInputs in;
  for (const workload::Page& page : page_inputs()) {
    for (const auto& name : page.unique_domains()) in.names.push_back(name);
    for (const auto& object : page.objects) {
      if (in.object_bytes.size() < 2000) in.object_bytes.push_back(object.bytes);
    }
  }
  return in;
}
ReplayInputs tier_replay(std::uint64_t seed) {
  workload::PopulationConfig pop;
  pop.names = kTierNames;
  pop.seed = seed;
  const workload::PopulationWorkload population(pop);
  ReplayInputs in;
  for (std::size_t rank = 1; rank <= kTierNames; ++rank) {
    in.names.push_back(population.name_for(rank));
  }
  return in;
}

const std::array<Workload, 4> kWorkloads = {{
    {"warm_stream",
     "per-message path: codecs, HPACK, TLS records, small segments, QUIC "
     "frames, the event loop",
     warm_adapter, stream_replay, false},
    {"fresh_connection",
     "handshakes, TCP SYN/FIN, QUIC handshakes and the client connection "
     "lifecycle",
     fresh_adapter, fresh_replay, false},
    {"page_load",
     "bulk HTTP/1.1 over TLS/TCP, the browser, WebFarm, the shard runner "
     "and per-shard arenas",
     page_load_round, page_replay, true},
    {"tier_overload",
     "the tier's shared cache, queue, admission and fairness, plus loss "
     "recovery",
     tier_adapter, tier_replay, false},
}};

/// Single-process workloads run each round as one shard on the calling
/// thread, inside a per-shard arena exactly as the paper benches do.
Round run_round(const Workload& w, std::uint64_t seed, SpanLog* spans,
                std::size_t jobs) {
  if (w.sharded) return w.round(seed, spans, jobs);
  simnet::ShardMemoryStats mem;
  std::vector<Round> rounds = bench::run_sharded<Round>(
      1, 1, [&](std::size_t) { return w.round(seed, spans, 1); }, &mem);
  // Copy out of the arena: a result that escapes keeps its whole arena
  // alive, and the run keeps every round.
  Round r = rounds.front();
  rounds.clear();
  record_memory(r.counts, mem, 1);
  r.counts["shards"] = 1.0;
  r.counts["workers"] = 1.0;
  r.counts["shard_cpu_max"] = r.cpu_s;
  return r;
}

double cpu_us_per_op(const Round& r) {
  return ratio(r.cpu_s * 1e6, static_cast<double>(r.ops));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string json_path;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0.0) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--json") {
      args.json_path = value;
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

/// Per-layer metrics from the traced rounds' summed counts. "per_res" is
/// per DNS resolution (page_load: per query a page issued).
std::vector<Metric> layer_metrics(const Counts& c, const Counts& replay,
                                  std::size_t rounds, double gen_ms,
                                  double overhead_pct,
                                  const std::vector<Round>& traced) {
  const auto get = [&c](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  const double res = get("res");
  const double per_round = 1.0 / static_cast<double>(std::max<std::size_t>(rounds, 1));
  const double pages = get("loads.U/CF") + get("loads.H/CF");
  std::vector<double> busy, imbalance;
  for (const Round& r : traced) {
    const double workers = r.counts.at("workers");
    busy.push_back(ratio(r.cpu_s, workers * r.wall_s));
    imbalance.push_back(ratio(r.counts.at("shard_cpu_max"),
                              r.cpu_s / r.counts.at("shards")));
  }
  const double hits = get("tier_cache_hits");
  std::vector<Metric> m = {
      {"workload.gen_ms", "ms", gen_ms},
      {"core.resolve_call_us_per_res", "us", ratio(get("resolve_s") * 1e6, res)},
      {"core.retries_per_1k", "count", ratio(get("retries") * 1e3, res)},
      {"core.udp_retransmits_per_1k", "count",
       ratio(get("udp_retransmits") * 1e3, res)},
      {"simnet.loop_self_us_per_res", "us",
       ratio((get("loop_s") - get("resolve_s")) * 1e6, res)},
      {"simnet.events_per_res", "count", ratio(get("events"), res)},
      {"simnet.packets_per_res", "count", ratio(get("tap_packets"), res)},
      {"simnet.wire_bytes_per_res", "B", ratio(get("tap_bytes"), res)},
      {"simnet.tcp_pure_acks_per_res", "count", ratio(get("pure_acks"), res)},
      {"simnet.tcp_retransmits_per_1k", "count",
       ratio(get("tcp_retransmits") * 1e3, res)},
      {"simnet.arena_allocs_per_res", "count", ratio(get("arena_allocs"), res)},
      {"simnet.global_allocs", "count", get("global_allocs") * per_round},
      {"simnet.freelist_hit_ratio", "ratio",
       ratio(get("freelist_hits"), get("arena_allocs"))},
      {"simnet.arena_peak_mb", "MB", get("arena_peak_mb")},
      {"dns.encode_ns", "ns", replay.at("dns.encode_ns")},
      {"dns.decode_ns", "ns", replay.at("dns.decode_ns")},
      // A query and its response cross the client/front-end boundary.
      {"dns.msgs_per_res", "count", ratio(2.0 * get("dns_exchanges"), res)},
      {"http2.hpack_encode_ns", "ns", replay.at("http2.hpack_encode_ns")},
      {"http2.hpack_decode_ns", "ns", replay.at("http2.hpack_decode_ns")},
      {"http2.hpack_encode_cold_ns", "ns",
       replay.at("http2.hpack_encode_cold_ns")},
      {"http2.frame_ns", "ns", replay.at("http2.frame_ns")},
      {"http2.header_bytes_per_res", "B",
       replay.at("http2.header_bytes_per_res")},
      {"http2.mgmt_bytes_per_res", "B",
       ratio(get("h2_mgmt_bytes"), get("h2_res"))},  // closed loop only
      {"http1.request_ns", "ns", replay.at("http1.request_ns")},
      {"http1.response_parse_ns", "ns", replay.at("http1.response_parse_ns")},
      {"tlssim.handshake_codec_us", "us",
       replay.at("tlssim.handshake_codec_us")},
      {"tlssim.full_handshakes", "count", get("full_handshakes") * per_round},
      {"tlssim.resumed_handshakes", "count",
       get("resumed_handshakes") * per_round},
      {"tlssim.records_per_res", "count", ratio(get("tls_records"), res)},
      {"tlssim.overhead_bytes_per_res", "B", ratio(get("tls_overhead"), res)},
      {"quicsim.frame_ns", "ns", replay.at("quicsim.frame_ns")},
      {"quicsim.packets_per_res", "count", ratio(get("quic_packets"), res)},
      {"quicsim.retransmits_per_1k", "count",
       ratio(get("quic_retransmits") * 1e3, res)},
      {"resolver.engine_queries_per_res", "count",
       ratio(get("engine_queries"), res)},
      {"resolver.tier_cache_hit_ratio", "ratio",
       ratio(hits, hits + get("tier_cache_misses"))},
      {"resolver.tier_shed_share", "ratio",
       ratio(get("tier_sheds"), get("tier_requests"))},
      {"resolver.tier_queue_wait_p99_ms", "virtual_ms",
       get("tier_queue_wait_p99_ms") * per_round},
      {"browser.dns_queries_per_page", "count", ratio(get("dns_queries"), pages)},
      {"browser.objects_per_page", "count", ratio(get("objects"), pages)},
      {"browser.fetch_failures", "count", get("fetch_failures") * per_round},
      {"shard.busy_share", "ratio", median(busy)},
      {"shard.imbalance", "ratio", median(imbalance)},
      {"obs.tracing_overhead_pct", "%", overhead_pct},
  };
  return m;
}

/// The per-layer share table: replay cost x operations per op, against the
/// measured CPU per op; what the replays do not cover is printed as the
/// unexplained remainder (event loop, transport state machines, clients,
/// servers).
void print_layer_table(const Counts& c, const Counts& replay, double ops,
                       double cpu_us) {
  const auto get = [&c](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  struct Row {
    const char* layer;
    double us;
    const char* basis;
  };
  const double frames_h2 = 4.0;  // HEADERS + DATA each way
  const std::vector<Row> rows = {
      {"dns", ratio(2.0 * get("dns_exchanges"), ops) *
                  (replay.at("dns.encode_ns") + replay.at("dns.decode_ns")) / 1e3,
       "msgs/op x (encode + decode)"},
      {"http2", ratio(get("h2_res"), ops) *
                    (2.0 * (replay.at("http2.hpack_encode_ns") +
                            replay.at("http2.hpack_decode_ns")) +
                     frames_h2 * replay.at("http2.frame_ns")) / 1e3,
       "h2 res/op x (2 blocks x hpack + 4 frames)"},
      {"http1", ratio(get("h1_res") + get("objects"), ops) *
                    (replay.at("http1.request_ns") +
                     replay.at("http1.response_parse_ns")) / 1e3,
       "(h1 res + page objects)/op x (request + response parse)"},
      {"tlssim", ratio(get("full_handshakes"), ops) *
                     replay.at("tlssim.handshake_codec_us"),
       "full handshakes/op x codec"},
      {"quicsim", ratio(get("quic_packets"), ops) *
                      replay.at("quicsim.frame_ns") / 1e3,
       "QUIC packets/op x frame"},
  };
  double explained = 0.0;
  std::printf("\n--- per-layer share (us per op; replay estimates) ---\n");
  for (const Row& r : rows) {
    std::printf("  %-10s %10.3f us  (%s)\n", r.layer, r.us, r.basis);
    explained += r.us;
  }
  std::printf("  %-10s %10.3f us  (measured: resolve() spans)\n", "core",
              ratio(get("resolve_s") * 1e6, ops));
  std::printf("  %-10s %10.3f us  (measured: loop.run() minus resolve())\n",
              "simnet", ratio((get("loop_s") - get("resolve_s")) * 1e6, ops));
  std::printf("  %-10s %10.3f us  (measured thread CPU per op)\n", "total",
              cpu_us);
  std::printf("  %-10s %10.3f us  (%.1f%%: event loop, TCP/TLS/QUIC state, "
              "clients, servers)\n",
              "unexplained", cpu_us - explained,
              100.0 * ratio(cpu_us - explained, cpu_us));
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: dohbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--json PATH] [--spans PATH]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "dohbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::size_t nproc = bench::default_jobs();
  const std::size_t jobs = w->sharded ? std::min(kPageWorkers, nproc) : 1;

  std::printf("=== dohbench %s (seed %llu, %.0f s, trace %d) ===\n", w->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("why: %s\n", w->why);
  std::printf("machine: nproc=%zu compiler=%s build=%s workers=%zu\n", nproc,
              DOHBENCH_COMPILER, DOHBENCH_BUILD_TYPE, jobs);

  // Check round: untimed and serial. Its digest is the reference every
  // timed round must reproduce (page_load: 1 worker vs the fixed pool).
  const Round check = run_round(*w, args.seed, nullptr, 1);
  std::vector<std::string> violations;
  if (!check.violation.empty()) violations.push_back("check: " + check.violation);

  SpanLog spans;
  if (args.trace) spans.reserve();
  const double epoch = wall_s();
  std::vector<Round> plain, traced;
  const double start = wall_s();
  bool digests_match = true;
  std::size_t k = 0;
  while (wall_s() - start < args.seconds || plain.size() < 3 ||
         (args.trace && traced.size() < 3)) {
    const bool trace_this = args.trace && k % 2 == 1;
    Round r = run_round(*w, args.seed, trace_this ? &spans : nullptr, jobs);
    if (r.digest != check.digest) digests_match = false;
    if (!r.violation.empty() && violations.size() < 5) {
      violations.push_back("round " + std::to_string(k) + ": " + r.violation);
    }
    (trace_this ? traced : plain).push_back(std::move(r));
    ++k;
  }
  if (!digests_match) {
    violations.push_back("determinism: a round's digest differs from the "
                         "check round's " + hex(check.digest));
  }

  std::size_t attempted = 0, failed = 0, wrong = 0;
  std::vector<double> setup, cpu, rate;
  std::map<std::string, std::vector<double>> phase_us;
  for (const auto* set : {&plain, &traced}) {
    for (const Round& r : *set) {
      attempted += r.ops;
      failed += r.failed;
      wrong += r.wrong;
      setup.push_back(r.setup_s);
    }
  }
  for (const Round& r : plain) {
    cpu.push_back(cpu_us_per_op(r));
    rate.push_back(ratio(static_cast<double>(r.ops), r.wall_s));
    for (const auto& [label, us] : r.phase_us) phase_us[label].push_back(us);
  }
  const bool correct = violations.empty() && wrong == 0;

  bench::BenchReport report(std::string("dohbench_") + w->name);
  report.params["seed"] = static_cast<std::int64_t>(args.seed);
  report.params["seconds"] = args.seconds;
  report.params["trace"] = static_cast<std::int64_t>(args.trace ? 1 : 0);
  report.params["rounds"] = static_cast<std::int64_t>(plain.size());
  report.params["traced_rounds"] = static_cast<std::int64_t>(traced.size());
  report.params["workers"] = static_cast<std::int64_t>(jobs);
  report.params["nproc"] = static_cast<std::int64_t>(nproc);
  report.params["compiler"] = std::string(DOHBENCH_COMPILER);
  report.params["build_type"] = std::string(DOHBENCH_BUILD_TYPE);

  std::printf("\nrounds: %zu timed%s, check digest %s\n", plain.size(),
              args.trace ? (" + " + std::to_string(traced.size()) + " traced").c_str()
                         : "",
              hex(check.digest).c_str());
  std::printf("\n%-12s %12s %12s %12s %10s\n", "phase", "cpu us/op med",
              "min", "max", "failed");
  for (const auto& [label, values] : phase_us) {
    const double fails = check.counts.count("failed." + label) != 0
                             ? check.counts.at("failed." + label)
                             : 0.0;
    std::printf("%-12s %12.3f %12.3f %12.3f %10.0f\n", label.c_str(),
                median(values), *std::min_element(values.begin(), values.end()),
                *std::max_element(values.begin(), values.end()), fails);
    report.set("phase/" + label, "cpu_us_per_op_med", median(values));
    report.set("phase/" + label, "cpu_us_per_op_min",
               *std::min_element(values.begin(), values.end()));
    report.set("phase/" + label, "cpu_us_per_op_max",
               *std::max_element(values.begin(), values.end()));
    report.set("phase/" + label, "failed_per_round", fails);
  }
  for (const char* key : {"cost_mismatches", "reconnected_phases",
                          "tier_sheds", "tier_refused", "tap_dropped"}) {
    if (check.counts.count(key) != 0) {
      std::printf("per round: %s = %.0f\n", key, check.counts.at(key));
      report.set("checks", key, check.counts.at(key));
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", median(setup)},
        {"cpu_us_per_op", "us", median(cpu)},
        {"ops_per_s", "1/s", median(rate)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
  } else {
    Counts sums;
    for (const Round& r : traced) {
      for (const auto& [key, value] : r.counts) {
        if (key == "arena_mb_per_worker") {
          sums["arena_peak_mb"] = std::max(sums["arena_peak_mb"], value);
        } else {
          sums[key] += value;
        }
      }
    }
    std::vector<double> traced_cpu;
    for (const Round& r : traced) traced_cpu.push_back(cpu_us_per_op(r));
    const double overhead =
        100.0 * ratio(median(traced_cpu) - median(cpu), median(cpu));
    Counts replay;
    {
      SpanScope span(&spans, "replays");
      replay = run_replays(w->replay_inputs(args.seed), &spans);
    }
    std::vector<double> traced_gen;
    for (const Round& r : traced) traced_gen.push_back(r.gen_s * 1e3);
    metrics = layer_metrics(sums, replay, traced.size(), median(traced_gen),
                            overhead, traced);
    double traced_ops = 0.0;
    for (const Round& r : traced) traced_ops += static_cast<double>(r.ops);
    print_layer_table(sums, replay, traced_ops, median(traced_cpu));
    std::printf("replay checksum: %llu\n",
                static_cast<unsigned long long>(g_sink));
    if (!args.spans_path.empty()) {
      bench::write_file(args.spans_path, spans_json(spans, epoch) + "\n");
      std::printf("wrote %s (%zu spans, %llu not stored)\n",
                  args.spans_path.c_str(), spans.spans().size(),
                  static_cast<unsigned long long>(spans.dropped()));
    }
  }

  std::printf("\n%-34s %14s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    report.set(args.trace ? "layers" : "e2e", m.name, m.value);
  }
  std::printf("\ncheck: %s  (failed/attempted %zu/%zu, wrong answers %zu)\n",
              correct ? "PASS" : "FAIL", failed, attempted, wrong);
  for (const std::string& v : violations) std::printf("  %s\n", v.c_str());
  report.set("checks", "correct", std::string(correct ? "PASS" : "FAIL"));
  report.set("checks", "attempted", static_cast<std::int64_t>(attempted));
  report.set("checks", "failed", static_cast<std::int64_t>(failed));
  report.set("checks", "digest", hex(check.digest));
  if (!args.json_path.empty()) {
    bench::write_file(args.json_path, report.to_json().dump() + "\n");
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  return 0;
}
