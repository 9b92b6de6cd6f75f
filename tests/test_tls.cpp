#include <gtest/gtest.h>

#include <algorithm>

#include "sim_fixture.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::tlssim {
namespace {

using dohperf::testing::TwoHostFixture;
using simnet::Bytes;

// --- handshake codec ---------------------------------------------------------

/// Encodes one message into a writer that already holds `prefix` bytes,
/// checks it spans exactly 4 + max(fields, target) bytes with that length
/// in its header and a zero-filled tail, and decodes it back.
template <typename Encode>
HandshakeMessage check_message(Encode encode, HsType type,
                               std::size_t fields, std::size_t target) {
  ByteWriter w;
  w.u16(0xabcd);  // encoders append after whatever is already there
  encode(w);
  const std::size_t body = std::max(fields, target);
  EXPECT_EQ(w.size(), 2 + message_bytes(body));
  const Bytes& out = w.data();
  EXPECT_EQ(out[2], static_cast<std::uint8_t>(type));
  EXPECT_EQ((std::size_t{out[3]} << 16) | (std::size_t{out[4]} << 8) | out[5],
            body);
  EXPECT_TRUE(std::all_of(out.begin() + 6 + static_cast<std::ptrdiff_t>(fields),
                          out.end(), [](std::uint8_t b) { return b == 0; }));
  ByteReader r(out);
  r.skip(2);
  HandshakeMessage msg = decode_handshake(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(msg.type, type);
  return msg;
}

TEST(HandshakeCodec, EncodersEmitPaddedBodiesAndRoundTrip) {
  ClientHello ch;
  ch.sni = "cloudflare-dns.com";
  ch.alpn = {"h2", "http/1.1"};
  ch.session_ticket = Bytes(10, 7);
  const std::size_t ch_fields = 2 + 2 + (2 + 18) + 1 + (2 + 2) + (2 + 8) +
                                (2 + 10);
  const auto ch_msg = check_message(
      [&](ByteWriter& w) { encode_client_hello(w, ch); },
      HsType::kClientHello, ch_fields, kClientHelloBody);
  EXPECT_EQ(ch_msg.client_hello->sni, ch.sni);
  EXPECT_EQ(ch_msg.client_hello->alpn, ch.alpn);
  EXPECT_EQ(ch_msg.client_hello->session_ticket, ch.session_ticket);

  // A ticket larger than the realistic size grows the body past it.
  ClientHello big = ch;
  big.session_ticket = Bytes(400, 9);
  const auto big_msg = check_message(
      [&](ByteWriter& w) { encode_client_hello(w, big); },
      HsType::kClientHello, ch_fields + 390, kClientHelloBody);
  EXPECT_EQ(big_msg.client_hello->session_ticket, big.session_ticket);

  for (const TlsVersion v : {TlsVersion::kTls12, TlsVersion::kTls13}) {
    const ServerHello sh{v, "h2", true};
    const auto sh_msg = check_message(
        [&](ByteWriter& w) { encode_server_hello(w, sh); },
        HsType::kServerHello, 2 + 4 + 1,
        v == TlsVersion::kTls13 ? kServerHello13Body : kServerHello12Body);
    EXPECT_EQ(sh_msg.server_hello->version, v);
    EXPECT_EQ(sh_msg.server_hello->alpn, "h2");
    EXPECT_TRUE(sh_msg.server_hello->resumed);
  }

  const CertificateChain chain = CertificateChain::cloudflare();
  const auto cert_msg = check_message(
      [&](ByteWriter& w) { encode_certificate(w, chain); },
      HsType::kCertificate, 2 + chain.subject.size() + 3 + 4,
      chain.wire_bytes);
  EXPECT_EQ(cert_msg.certificate->subject, chain.subject);
  EXPECT_EQ(cert_msg.certificate->chain_bytes, chain.wire_bytes);

  const NewSessionTicketMsg ticket{Bytes(20, 3)};
  const auto nst_msg = check_message(
      [&](ByteWriter& w) { encode_new_session_ticket(w, ticket); },
      HsType::kNewSessionTicket, 2 + 20, kNewSessionTicketBody);
  EXPECT_EQ(nst_msg.ticket->ticket, ticket.ticket);

  for (const std::size_t body : {std::size_t{0}, kFinishedBody,
                                 kCertificateVerifyBody}) {
    check_message(
        [&](ByteWriter& w) { encode_plain(w, HsType::kFinished, body); },
        HsType::kFinished, 0, body);
  }
}

/// Fixture wiring a TLS echo server and a TLS client over simulated TCP.
class TlsTest : public TwoHostFixture {
 protected:
  ServerConfig server_config;
  std::unique_ptr<TlsConnection> server_tls;
  std::unique_ptr<TlsConnection> client_tls;

  void start_server(std::uint16_t port = 443) {
    server.tcp_listen(port, [this](std::shared_ptr<simnet::TcpConnection> c) {
      server_tls = std::make_unique<TlsConnection>(
          std::make_unique<simnet::TcpByteStream>(std::move(c)),
          &server_config);
      TlsConnection::Handlers h;
      h.on_data = [this](std::span<const std::uint8_t> d) {
        server_tls->send(Bytes(d.begin(), d.end()));  // echo
      };
      server_tls->set_handlers(std::move(h));
    });
  }

  TlsConnection& connect(ClientConfig config, std::uint16_t port = 443) {
    client_tls = std::make_unique<TlsConnection>(
        std::make_unique<simnet::TcpByteStream>(
            client.tcp_connect({server.id(), port})),
        std::move(config));
    return *client_tls;
  }
};

TEST_F(TlsTest, Tls13FullHandshake) {
  start_server();
  auto& tls = connect({});
  bool opened = false;
  TlsConnection::Handlers h;
  h.on_open = [&]() { opened = true; };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_TRUE(opened);
  EXPECT_TRUE(tls.established());
  EXPECT_EQ(tls.version(), TlsVersion::kTls13);
  EXPECT_FALSE(tls.resumed());
  ASSERT_TRUE(tls.peer_certificate().has_value());
  EXPECT_EQ(tls.peer_certificate()->subject, "example.net");
}

TEST_F(TlsTest, EchoAppData) {
  start_server();
  auto& tls = connect({});
  Bytes echoed;
  TlsConnection::Handlers h;
  h.on_open = [&tls]() { tls.send(Bytes{1, 2, 3}); };
  h.on_data = [&](std::span<const std::uint8_t> d) {
    echoed.assign(d.begin(), d.end());
  };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_EQ(echoed, (Bytes{1, 2, 3}));
}

TEST_F(TlsTest, SendBeforeEstablishedIsQueued) {
  start_server();
  auto& tls = connect({});
  Bytes echoed;
  TlsConnection::Handlers h;
  h.on_data = [&](std::span<const std::uint8_t> d) {
    echoed.assign(d.begin(), d.end());
  };
  tls.set_handlers(std::move(h));
  tls.send(Bytes{7, 8, 9});  // handshake has not even started
  loop.run();
  EXPECT_EQ(echoed, (Bytes{7, 8, 9}));
}

TEST_F(TlsTest, Tls12FullHandshakeTwoRtt) {
  server_config.versions = {TlsVersion::kTls12};
  start_server();
  ClientConfig cc;
  cc.min_version = TlsVersion::kTls10;
  cc.max_version = TlsVersion::kTls13;
  auto& tls = connect(std::move(cc));
  simnet::TimeUs established_at = 0;
  TlsConnection::Handlers h;
  h.on_open = [&]() { established_at = loop.now(); };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_EQ(tls.version(), TlsVersion::kTls12);
  // TCP handshake (1 RTT) + TLS 1.2 (2 RTT) = 3 RTT = 30ms with 5ms one-way.
  EXPECT_GE(established_at, simnet::ms(30));
}

TEST_F(TlsTest, Tls13IsOneRttFasterThan12) {
  start_server();
  auto& tls = connect({});
  simnet::TimeUs established_at = 0;
  TlsConnection::Handlers h;
  h.on_open = [&]() { established_at = loop.now(); };
  tls.set_handlers(std::move(h));
  loop.run();
  // TCP (1 RTT) + TLS 1.3 (1 RTT) = 20ms.
  EXPECT_EQ(established_at, simnet::ms(20));
}

TEST_F(TlsTest, VersionNegotiationPicksHighestCommon) {
  server_config.versions = {TlsVersion::kTls10, TlsVersion::kTls11,
                            TlsVersion::kTls12};
  start_server();
  ClientConfig cc;
  cc.min_version = TlsVersion::kTls10;
  cc.max_version = TlsVersion::kTls13;
  auto& tls = connect(std::move(cc));
  tls.set_handlers({});
  loop.run();
  EXPECT_EQ(tls.version(), TlsVersion::kTls12);
}

TEST_F(TlsTest, NoCommonVersionFailsWithAlert) {
  server_config.versions = {TlsVersion::kTls10};
  start_server();
  ClientConfig cc;
  cc.min_version = TlsVersion::kTls12;
  cc.max_version = TlsVersion::kTls13;
  auto& tls = connect(std::move(cc));
  bool closed = false;
  TlsConnection::Handlers h;
  h.on_close = [&]() { closed = true; };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_TRUE(closed);
  EXPECT_FALSE(tls.established());
  ASSERT_TRUE(tls.failure_alert().has_value());
  EXPECT_EQ(*tls.failure_alert(), AlertDescription::kHandshakeFailure);
}

TEST_F(TlsTest, AlpnSelection) {
  server_config.alpn_preference = {"h2", "http/1.1"};
  start_server();
  ClientConfig cc;
  cc.alpn = {"http/1.1", "h2"};
  auto& tls = connect(std::move(cc));
  tls.set_handlers({});
  loop.run();
  EXPECT_EQ(tls.alpn(), "h2");  // server preference wins
}

TEST_F(TlsTest, AlpnMismatchFails) {
  server_config.alpn_preference = {"h2"};
  start_server();
  ClientConfig cc;
  cc.alpn = {"spdy/3"};
  auto& tls = connect(std::move(cc));
  tls.set_handlers({});
  loop.run();
  EXPECT_TRUE(tls.failed());
  EXPECT_EQ(*tls.failure_alert(), AlertDescription::kNoApplicationProtocol);
}

TEST_F(TlsTest, NoAlpnOfferedIsAccepted) {
  start_server();  // DoT-style: no ALPN
  auto& tls = connect({});
  tls.set_handlers({});
  loop.run();
  EXPECT_TRUE(tls.established());
  EXPECT_TRUE(tls.alpn().empty());
}

TEST_F(TlsTest, SessionResumptionSkipsCertificate) {
  server_config.chain = CertificateChain::google();
  start_server();
  SessionCache cache;

  ClientConfig first;
  first.sni = "dns.google.com";
  first.session_cache = &cache;
  auto& tls1 = connect(std::move(first));
  tls1.set_handlers({});
  loop.run();
  EXPECT_TRUE(tls1.established());
  EXPECT_FALSE(tls1.resumed());
  EXPECT_EQ(cache.size(), 1u);
  const auto full_handshake_bytes = tls1.counters().handshake_bytes_received;

  ClientConfig second;
  second.sni = "dns.google.com";
  second.session_cache = &cache;
  auto& tls2 = connect(std::move(second));
  tls2.set_handlers({});
  loop.run();
  EXPECT_TRUE(tls2.established());
  EXPECT_TRUE(tls2.resumed());
  EXPECT_FALSE(tls2.peer_certificate().has_value());
  // No certificate on the wire: handshake is far smaller.
  EXPECT_LT(tls2.counters().handshake_bytes_received,
            full_handshake_bytes - server_config.chain.wire_bytes / 2);
}

TEST_F(TlsTest, CertificateSizeShowsOnWire) {
  // Google's chain (3,101 B) vs Cloudflare's (1,960 B), as measured in §4.
  server_config.chain = CertificateChain::google();
  start_server();
  auto& tls_google = connect({});
  tls_google.set_handlers({});
  loop.run();
  const auto google_bytes = tls_google.counters().handshake_bytes_received;

  server_config.chain = CertificateChain::cloudflare();
  auto& tls_cf = connect({});
  tls_cf.set_handlers({});
  loop.run();
  const auto cf_bytes = tls_cf.counters().handshake_bytes_received;

  EXPECT_EQ(google_bytes - cf_bytes, 3101u - 1960u);
}

TEST_F(TlsTest, RecordOverheadPerSend) {
  start_server();
  auto& tls = connect({});
  int echoes = 0;
  TlsConnection::Handlers h;
  h.on_open = [&tls]() { tls.send(Bytes(100, 1)); };
  h.on_data = [&](std::span<const std::uint8_t>) {
    if (++echoes < 3) tls.send(Bytes(100, 1));
  };
  tls.set_handlers(std::move(h));
  loop.run();
  const auto& c = tls.counters();
  EXPECT_EQ(c.app_bytes_sent, 300u);
  // TLS 1.3: 5B header + 16B tag + 1B inner type per record.
  EXPECT_EQ(c.record_overhead_sent, 3 * 22u);
  EXPECT_EQ(c.app_bytes_received, 300u);
}

TEST_F(TlsTest, LargePayloadFragmentsIntoRecords) {
  start_server();
  auto& tls = connect({});
  std::size_t received = 0;
  TlsConnection::Handlers h;
  h.on_open = [&tls]() { tls.send(Bytes(40000, 5)); };
  h.on_data = [&](std::span<const std::uint8_t> d) { received += d.size(); };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_EQ(received, 40000u);
  // 40000 / 16384 -> 3 records each way at least.
  EXPECT_GE(tls.counters().records_sent, 3u);
}

TEST_F(TlsTest, CloseNotifyPropagates) {
  start_server();
  auto& tls = connect({});
  bool closed = false;
  TlsConnection::Handlers h;
  h.on_open = [&tls]() { tls.close(); };
  h.on_close = [&]() { closed = true; };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_FALSE(tls.is_open());
  (void)closed;  // our own close() does not re-notify
  EXPECT_FALSE(server_tls->is_open());
}

TEST_F(TlsTest, Tls12ResumptionOneRtt) {
  server_config.versions = {TlsVersion::kTls12};
  start_server();
  SessionCache cache;
  ClientConfig first;
  first.sni = "example.net";
  first.session_cache = &cache;
  first.max_version = TlsVersion::kTls12;
  auto& tls1 = connect(std::move(first));
  tls1.set_handlers({});
  loop.run();
  ASSERT_TRUE(tls1.established());

  ClientConfig second = {};
  second.sni = "example.net";
  second.session_cache = &cache;
  second.max_version = TlsVersion::kTls12;
  // The first connection's trailing timers advanced the clock; measure the
  // second handshake relative to its start.
  const simnet::TimeUs start = loop.now();
  auto& tls2 = connect(std::move(second));
  simnet::TimeUs established_at = 0;
  TlsConnection::Handlers h;
  h.on_open = [&]() { established_at = loop.now(); };
  tls2.set_handlers(std::move(h));
  loop.run();
  EXPECT_TRUE(tls2.resumed());
  // Abbreviated handshake: TCP (1 RTT) + TLS (1 RTT) = 20 ms, vs 30 ms full.
  EXPECT_LE(established_at - start, simnet::ms(25));
}

}  // namespace
}  // namespace dohperf::tlssim
