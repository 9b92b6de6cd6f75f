#include "tlssim/handshake.hpp"

#include <algorithm>

namespace dohperf::tlssim {

namespace {

/// Start a message: the type and a 24-bit length that finish_message()
/// backpatches. Reserves the whole message assuming the fields fit in
/// `target`, so the body is written straight into `w`. Returns the body's
/// offset.
std::size_t begin_message(ByteWriter& w, HsType type, std::size_t target) {
  w.reserve(w.size() + message_bytes(target));
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);
  w.u16(0);
  return w.size();
}

/// Pad the body that started at `body_start` with zeros up to `target`
/// bytes and backpatch its length.
void finish_message(ByteWriter& w, std::size_t body_start,
                    std::size_t target) {
  const std::size_t written = w.size() - body_start;
  const std::size_t body_len = std::max(written, target);
  if (body_len > 0xffffff) throw WireError("handshake message too large");
  w.zeros(body_len - written);
  w.patch_u24(body_start - 3, static_cast<std::uint32_t>(body_len));
}

void write_lv_string(ByteWriter& w, const std::string& s) {
  if (s.size() > 0xffff) throw WireError("string too long");
  w.u16(static_cast<std::uint16_t>(s.size()));
  w.string(s);
}

std::string read_lv_string(ByteReader& r) {
  const std::uint16_t len = r.u16();
  return r.string(len);
}

}  // namespace

void encode_client_hello(ByteWriter& w, const ClientHello& ch) {
  const std::size_t body =
      begin_message(w, HsType::kClientHello, kClientHelloBody);
  w.u16(static_cast<std::uint16_t>(ch.min_version));
  w.u16(static_cast<std::uint16_t>(ch.max_version));
  write_lv_string(w, ch.sni);
  w.u8(static_cast<std::uint8_t>(ch.alpn.size()));
  for (const auto& proto : ch.alpn) write_lv_string(w, proto);
  w.u16(static_cast<std::uint16_t>(ch.session_ticket.size()));
  w.bytes(ch.session_ticket);
  finish_message(w, body, kClientHelloBody);
}

void encode_server_hello(ByteWriter& w, const ServerHello& sh) {
  const std::size_t target = sh.version == TlsVersion::kTls13
                                 ? kServerHello13Body
                                 : kServerHello12Body;
  const std::size_t body = begin_message(w, HsType::kServerHello, target);
  w.u16(static_cast<std::uint16_t>(sh.version));
  write_lv_string(w, sh.alpn);
  w.u8(sh.resumed ? 1 : 0);
  finish_message(w, body, target);
}

void encode_certificate(ByteWriter& w, const CertificateMsg& cert) {
  // The Certificate message's size is dominated by the chain itself; pad
  // the body to exactly the configured chain size (plus a small framing
  // allowance already included in chain_bytes).
  const std::size_t body =
      begin_message(w, HsType::kCertificate, cert.chain_bytes);
  write_lv_string(w, cert.subject);
  w.u8(cert.certificate_count);
  w.u8(cert.ct_logged ? 1 : 0);
  w.u8(cert.ocsp_must_staple ? 1 : 0);
  w.u32(cert.chain_bytes);
  finish_message(w, body, cert.chain_bytes);
}

void encode_certificate(ByteWriter& w, const CertificateChain& chain) {
  CertificateMsg cert;
  cert.subject = chain.subject;
  cert.certificate_count = static_cast<std::uint8_t>(chain.certificate_count);
  cert.ct_logged = chain.ct_logged;
  cert.ocsp_must_staple = chain.ocsp_must_staple;
  cert.chain_bytes = static_cast<std::uint32_t>(chain.wire_bytes);
  encode_certificate(w, cert);
}

void encode_new_session_ticket(ByteWriter& w, const NewSessionTicketMsg& t) {
  const std::size_t body =
      begin_message(w, HsType::kNewSessionTicket, kNewSessionTicketBody);
  w.u16(static_cast<std::uint16_t>(t.ticket.size()));
  w.bytes(t.ticket);
  finish_message(w, body, kNewSessionTicketBody);
}

void encode_plain(ByteWriter& w, HsType type, std::size_t body_size) {
  finish_message(w, begin_message(w, type, body_size), body_size);
}

HandshakeMessage decode_handshake(ByteReader& r) {
  HandshakeMessage msg;
  msg.type = static_cast<HsType>(r.u8());
  const std::uint32_t hi = r.u8();
  const std::uint32_t lo = r.u16();
  const std::size_t body_len = (hi << 16) | lo;
  const std::size_t body_end = r.offset() + body_len;
  if (body_len > r.remaining()) throw WireError("truncated handshake message");

  switch (msg.type) {
    case HsType::kClientHello: {
      ClientHello ch;
      ch.min_version = static_cast<TlsVersion>(r.u16());
      ch.max_version = static_cast<TlsVersion>(r.u16());
      ch.sni = read_lv_string(r);
      const std::uint8_t n_alpn = r.u8();
      for (std::uint8_t i = 0; i < n_alpn; ++i) {
        ch.alpn.push_back(read_lv_string(r));
      }
      const std::uint16_t ticket_len = r.u16();
      ch.session_ticket = r.bytes(ticket_len);
      msg.client_hello = std::move(ch);
      break;
    }
    case HsType::kServerHello: {
      ServerHello sh;
      sh.version = static_cast<TlsVersion>(r.u16());
      sh.alpn = read_lv_string(r);
      sh.resumed = r.u8() != 0;
      msg.server_hello = std::move(sh);
      break;
    }
    case HsType::kCertificate: {
      CertificateMsg cert;
      cert.subject = read_lv_string(r);
      cert.certificate_count = r.u8();
      cert.ct_logged = r.u8() != 0;
      cert.ocsp_must_staple = r.u8() != 0;
      cert.chain_bytes = r.u32();
      msg.certificate = std::move(cert);
      break;
    }
    case HsType::kNewSessionTicket: {
      NewSessionTicketMsg t;
      const std::uint16_t len = r.u16();
      t.ticket = r.bytes(len);
      msg.ticket = std::move(t);
      break;
    }
    default:
      break;  // field-free message
  }
  r.seek(body_end);  // skip padding
  return msg;
}

}  // namespace dohperf::tlssim
