// Microbenchmarks for the protocol codecs: DNS wire format, HPACK, Huffman,
// HTTP/2 frames, base64url, dns-json, the TLS handshake and QUIC packet
// codecs, and the discrete-event core. These
// guard against performance regressions in the machinery every experiment
// is built on.
//
// Each case is timed over kReps repetitions of a calibrated iteration count
// and reported as ns/op median, min and max ("dohperf-bench-v1" JSON via
// --json). The timings are wall-clock, so this is one of the two benches
// (with micro_simcore) whose JSON is NOT byte-identical across runs. Each
// case also reports allocs_per_op: the allocations it makes, counted by
// running it in one arena shard (bench/shard_runner.hpp). That count is
// deterministic, so CI gates it exactly.
#include <algorithm>
#include <chrono>  // detlint: allow(DET001) wall-clock timing is the measurement here
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dns/base64url.hpp"
#include "dns/json.hpp"
#include "dns/message.hpp"
#include "http2/frame.hpp"
#include "http2/hpack.hpp"
#include "quicsim/packet.hpp"
#include "shard_runner.hpp"
#include "simnet/event_loop.hpp"
#include "tlssim/handshake.hpp"

namespace {

using namespace dohperf;

constexpr int kReps = 5;
constexpr double kRepSeconds = 0.05;   ///< calibration target per repetition
constexpr std::size_t kAllocOps = 1000;  ///< iterations in the allocation count

/// Seconds of real time since an arbitrary epoch.
double now_sec() {
  // detlint: allow(DET001) microbenchmark measures real elapsed time
  using clock = std::chrono::steady_clock;
  // detlint: allow(DET001) microbenchmark measures real elapsed time
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Keeps a result alive so the compiler cannot drop the work producing it.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// One case: `op` runs a single iteration.
struct Case {
  std::string scenario;
  std::function<void()> op;
};

dns::Message sample_response() {
  const auto query =
      dns::Message::make_query(0, dns::Name::parse("www.example.com"));
  return dns::Message::make_response(
      query,
      {dns::ResourceRecord::a(dns::Name::parse("www.example.com"),
                              "93.184.216.34"),
       dns::ResourceRecord::a(dns::Name::parse("www.example.com"),
                              "93.184.216.35"),
       dns::ResourceRecord::cname(dns::Name::parse("alias.example.com"),
                                  dns::Name::parse("www.example.com"))});
}

std::vector<http2::HeaderField> doh_headers() {
  return {
      {":method", "POST"},
      {":scheme", "https"},
      {":authority", "cloudflare-dns.com"},
      {":path", "/dns-query"},
      {"accept", "application/dns-message"},
      {"content-type", "application/dns-message"},
      {"content-length", "47"},
      {"user-agent",
       "Mozilla/5.0 (X11; Linux x86_64; rv:66.0) Gecko/20100101 Firefox/66.0"},
  };
}

std::vector<Case> cases() {
  std::vector<Case> out;
  const auto message = sample_response();
  const auto wire = message.encode();
  out.push_back({"dns/encode", [message]() { keep(message.encode()); }});
  out.push_back({"dns/decode", [wire]() { keep(dns::Message::decode(wire)); }});
  out.push_back({"dns_json/encode",
                 [message]() { keep(dns::to_dns_json(message)); }});
  const auto json = dns::to_dns_json(message);
  out.push_back({"dns_json/decode",
                 [json]() { keep(dns::from_dns_json(json)); }});
  out.push_back({"base64url/round_trip", [wire]() {
                   keep(dns::base64url_decode(dns::base64url_encode(wire)));
                 }});

  const auto headers = doh_headers();
  out.push_back({"hpack/encode_first_block", [headers]() {
                   http2::HpackEncoder encoder;  // cold dynamic table
                   keep(encoder.encode(headers));
                 }});
  auto warm = std::make_shared<http2::HpackEncoder>();
  warm->encode(headers);  // warm the dynamic table
  out.push_back({"hpack/encode_repeat_block",
                 [warm, headers]() { keep(warm->encode(headers)); }});
  http2::HpackEncoder stateless;
  stateless.disable_dynamic_table();  // a block decodable repeatedly
  const auto block = stateless.encode(headers);
  out.push_back({"hpack/decode", [block]() {
                   http2::HpackDecoder decoder;
                   keep(decoder.decode(block));
                 }});

  const std::string text =
      "dns-query?dns=AAABAAABAAAAAAAAA3d3dwdleGFtcGxlA2NvbQAAAQAB";
  out.push_back({"huffman/encode",
                 [text]() { keep(http2::huffman_encode(text)); }});
  const auto huffman = http2::huffman_encode(text);
  out.push_back({"huffman/decode",
                 [huffman]() { keep(http2::huffman_decode(huffman)); }});

  http2::Frame frame;
  frame.type = http2::FrameType::kData;
  frame.stream_id = 1;
  frame.payload = http2::Bytes(128, 7);
  out.push_back({"h2/frame_round_trip", [frame]() {
                   http2::FrameReader reader;
                   reader.feed(http2::encode_frame(frame));
                   keep(reader.next());
                 }});

  // A full TLS 1.3 server flight with the Cloudflare chain (2,312 B of
  // messages, mostly zero padding), encoded into one buffer and decoded.
  const auto chain = tlssim::CertificateChain::cloudflare();
  out.push_back({"tlssim/handshake_flight", [chain]() {
                   using tlssim::HsType;
                   dns::ByteWriter flight;
                   flight.reserve(
                       tlssim::message_bytes(tlssim::kEncryptedExtensionsBody) +
                       tlssim::message_bytes(chain.wire_bytes) +
                       tlssim::message_bytes(tlssim::kCertificateVerifyBody) +
                       tlssim::message_bytes(tlssim::kFinishedBody));
                   tlssim::encode_plain(flight, HsType::kEncryptedExtensions,
                                        tlssim::kEncryptedExtensionsBody);
                   tlssim::encode_certificate(flight, chain);
                   tlssim::encode_plain(flight, HsType::kCertificateVerify,
                                        tlssim::kCertificateVerifyBody);
                   tlssim::encode_plain(flight, HsType::kFinished,
                                        tlssim::kFinishedBody);
                   dns::ByteReader r(flight.data());
                   while (!r.exhausted()) keep(tlssim::decode_handshake(r));
                 }});

  // A client Initial: a ClientHello CRYPTO frame padded to 1,200 B.
  dns::ByteWriter hello;
  tlssim::ClientHello ch;
  ch.sni = "cloudflare-dns.com";
  ch.alpn = {"doq"};
  tlssim::encode_client_hello(hello, ch);
  quicsim::Packet initial;
  initial.long_header = true;
  initial.connection_id = 0x1234;
  initial.frames.emplace_back(quicsim::CryptoFrame{0, hello.take()});
  initial.frames.emplace_back(quicsim::PaddingFrame{static_cast<std::uint16_t>(
      quicsim::kMinInitialPayload - initial.udp_wire_size())});
  out.push_back({"quicsim/packet_round_trip", [initial]() {
                   keep(quicsim::Packet::decode(initial.encode()));
                 }});

  out.push_back({"event_loop/schedule_run", []() {
                   simnet::EventLoop loop;
                   int fired = 0;
                   for (int i = 0; i < 100; ++i) {
                     loop.schedule_in(i, [&fired]() { ++fired; });
                   }
                   loop.run();
                   keep(fired);
                 }});

  dns::Message repeated;
  const auto owner = dns::Name::parse("a.b.c.d.example.com");
  for (int i = 0; i < 10; ++i) {
    repeated.answers.push_back(dns::ResourceRecord::a(owner, "192.0.2.1"));
  }
  out.push_back({"dns/name_compression_encode",
                 [repeated]() { keep(repeated.encode(true)); }});
  return out;
}

/// Wall seconds for `iterations` runs of `op`.
double time_iterations(const std::function<void()>& op,
                       std::size_t iterations) {
  const double t0 = now_sec();
  for (std::size_t i = 0; i < iterations; ++i) op();
  return now_sec() - t0;
}

/// Allocations per iteration, counted by the arena of one serial shard.
double allocs_per_op(const std::function<void()>& op) {
  op();  // first-call set-up (static tables) is not per-op cost
  simnet::ShardMemoryStats mem;
  bench::run_sharded<int>(
      1, 1,
      [&op](std::size_t) {
        for (std::size_t i = 0; i < kAllocOps; ++i) op();
        return 0;
      },
      &mem);
  return static_cast<double>(mem.arena_allocs + mem.huge_allocs) /
         static_cast<double>(kAllocOps);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== micro_codecs: codec microbenchmarks ===\n\n");
  std::printf("%-28s %12s %12s %12s %12s %12s\n", "case", "iterations",
              "median ns", "min ns", "max ns", "allocs/op");

  bench::BenchReport report("micro_codecs");
  report.params["reps"] = static_cast<std::int64_t>(kReps);
  for (const auto& c : cases()) {
    // Calibrate: double the iteration count until one repetition lasts
    // kRepSeconds.
    std::size_t iterations = 1;
    while (time_iterations(c.op, iterations) < kRepSeconds) iterations *= 2;

    std::vector<double> ns_per_op;
    for (int rep = 0; rep < kReps; ++rep) {
      ns_per_op.push_back(time_iterations(c.op, iterations) * 1e9 /
                          static_cast<double>(iterations));
    }
    std::sort(ns_per_op.begin(), ns_per_op.end());
    const double median = ns_per_op[ns_per_op.size() / 2];
    const double allocs = allocs_per_op(c.op);
    std::printf("%-28s %12zu %12.1f %12.1f %12.1f %12.2f\n",
                c.scenario.c_str(), iterations, median, ns_per_op.front(),
                ns_per_op.back(), allocs);
    report.set(c.scenario, "iterations", static_cast<std::int64_t>(iterations));
    report.set(c.scenario, "ns_per_op_median", median);
    report.set(c.scenario, "ns_per_op_min", ns_per_op.front());
    report.set(c.scenario, "ns_per_op_max", ns_per_op.back());
    report.set(c.scenario, "allocs_per_op", allocs);
  }
  bench::finish(argc, argv, report);
  return 0;
}
