// TLS handshake message encodings.
//
// Messages use a compact field encoding (both endpoints are ours) padded
// with zeros to realistic wire sizes, so the byte accounting matches what a
// real handshake puts on the network while the contents stay synthetic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/wire.hpp"
#include "tlssim/types.hpp"

namespace dohperf::tlssim {

using dns::Bytes;
using dns::ByteReader;
using dns::ByteWriter;
using dns::WireError;

enum class HsType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kNewSessionTicket = 4,
  kEncryptedExtensions = 8,
  kCertificate = 11,
  kServerKeyExchange = 12,
  kServerHelloDone = 14,
  kCertificateVerify = 15,
  kClientKeyExchange = 16,
  kFinished = 20,
};

/// Realistic message sizes (bytes of handshake message body, excluding the
/// 4-byte message header). Sources: typical captures of TLS 1.2/1.3
/// handshakes with ECDHE + RSA-2048 certificates.
constexpr std::size_t kClientHelloBody = 250;
constexpr std::size_t kServerHello13Body = 120;
constexpr std::size_t kServerHello12Body = 90;
constexpr std::size_t kEncryptedExtensionsBody = 40;
constexpr std::size_t kCertificateVerifyBody = 264;
constexpr std::size_t kServerKeyExchangeBody = 300;
constexpr std::size_t kServerHelloDoneBody = 4;
constexpr std::size_t kClientKeyExchangeBody = 70;
constexpr std::size_t kFinishedBody = 40;
constexpr std::size_t kNewSessionTicketBody = 200;

struct ClientHello {
  TlsVersion min_version = TlsVersion::kTls12;
  TlsVersion max_version = TlsVersion::kTls13;
  std::string sni;
  std::vector<std::string> alpn;
  Bytes session_ticket;  ///< empty = no resumption attempt
};

struct ServerHello {
  TlsVersion version = TlsVersion::kTls13;
  std::string alpn;      ///< empty = no ALPN negotiated
  bool resumed = false;  ///< server accepted the offered ticket
};

struct CertificateMsg {
  std::string subject;
  std::uint8_t certificate_count = 2;
  bool ct_logged = true;
  bool ocsp_must_staple = false;
  std::uint32_t chain_bytes = 2500;  ///< padded body size
};

struct NewSessionTicketMsg {
  Bytes ticket;
};

/// A parsed handshake message: type plus whichever struct applies. Messages
/// with no interesting fields (Finished, SKE, SHD, CKE, EE) carry nothing.
struct HandshakeMessage {
  HsType type = HsType::kFinished;
  std::optional<ClientHello> client_hello;
  std::optional<ServerHello> server_hello;
  std::optional<CertificateMsg> certificate;
  std::optional<NewSessionTicketMsg> ticket;
};

/// Wire size of a message with a `body`-byte body (4-byte header + body).
constexpr std::size_t message_bytes(std::size_t body) { return 4 + body; }

// Encoders append one complete message (4-byte header + padded body),
// writing the body in place; the padding is one bulk zero-fill.
void encode_client_hello(ByteWriter& w, const ClientHello& ch);
void encode_server_hello(ByteWriter& w, const ServerHello& sh);
void encode_certificate(ByteWriter& w, const CertificateMsg& cert);
/// The Certificate message that presents `chain`.
void encode_certificate(ByteWriter& w, const CertificateChain& chain);
void encode_new_session_ticket(ByteWriter& w, const NewSessionTicketMsg& t);
/// Field-free messages (Finished, EncryptedExtensions, SKE, SHD, CKE, CV).
void encode_plain(ByteWriter& w, HsType type, std::size_t body_size);

/// Decode one message at the reader's position.
HandshakeMessage decode_handshake(ByteReader& r);

}  // namespace dohperf::tlssim
