#include "quicsim/connection.hpp"

#include <algorithm>
#include <cassert>

namespace dohperf::quicsim {

using tlssim::HsType;

namespace {

/// The most stream ids one frame may open beyond the highest seen of its
/// type. Far above any real client's concurrency; it only stops a garbage
/// stream id from opening billions of streams.
constexpr std::uint64_t kMaxImplicitStreams = std::uint64_t{1} << 16;

}  // namespace

QuicConnection::QuicConnection(simnet::EventLoop& loop, DatagramSender sender,
                               std::uint64_t connection_id,
                               tlssim::ClientConfig tls,
                               QuicConnectionConfig config)
    : loop_(loop), sender_(std::move(sender)), connection_id_(connection_id),
      role_(Role::kClient), client_tls_(std::move(tls)), config_(config),
      next_stream_id_(0) {
  start_client_handshake();
}

QuicConnection::QuicConnection(simnet::EventLoop& loop, DatagramSender sender,
                               std::uint64_t connection_id,
                               const tlssim::ServerConfig* tls,
                               QuicConnectionConfig config)
    : loop_(loop), sender_(std::move(sender)), connection_id_(connection_id),
      role_(Role::kServer), server_tls_(tls), config_(config),
      next_stream_id_(1) {
  assert(tls != nullptr);
}

QuicConnection::~QuicConnection() { loop_.cancel(pto_timer_); }

void QuicConnection::start_client_handshake() {
  tlssim::ClientHello ch;
  ch.min_version = tlssim::TlsVersion::kTls13;  // QUIC v1 requires TLS 1.3
  ch.max_version = tlssim::TlsVersion::kTls13;
  ch.sni = client_tls_.sni;
  ch.alpn = client_tls_.alpn.empty() ? std::vector<std::string>{"doq"}
                                     : client_tls_.alpn;
  dns::ByteWriter w;
  tlssim::encode_client_hello(w, ch);

  CryptoFrame crypto;
  crypto.offset = crypto_tx_offset_;
  crypto.data = w.take();
  crypto_tx_offset_ += crypto.data.size();
  counters_.handshake_bytes += crypto.data.size();

  // RFC 9000 §8.1: the Initial must be padded to at least 1200 bytes.
  std::vector<Frame> frames;
  frames.reserve(2);
  frames.emplace_back(std::move(crypto));
  const std::size_t unpadded = Packet::udp_wire_size(
      Packet::header_size(/*long_header=*/true) + encoded_size(frames[0]) +
      kAeadTagBytes);
  if (unpadded < kMinInitialPayload) {
    PaddingFrame padding;
    padding.length = static_cast<std::uint16_t>(kMinInitialPayload - unpadded);
    counters_.handshake_bytes += padding.length;
    frames.emplace_back(padding);
  }
  send_packet(std::move(frames), /*long_header=*/true);
}

void QuicConnection::send_frame(Frame frame, bool long_header) {
  std::vector<Frame> frames;
  frames.reserve(1);
  frames.push_back(std::move(frame));
  send_packet(std::move(frames), long_header);
}

void QuicConnection::send_packet(std::vector<Frame> frames,
                                 bool long_header) {
  if (closed_) return;
  Packet packet;
  packet.long_header = long_header;
  packet.connection_id = connection_id_;
  packet.packet_number = next_packet_number_++;
  packet.frames = std::move(frames);
  // Encoded once: the wire size is read off the datagram itself.
  Bytes datagram = packet.encode();

  ++counters_.packets_sent;
  counters_.wire_bytes_sent += Packet::udp_wire_size(datagram.size());
  for (const auto& f : packet.frames) {
    if (const auto* sf = std::get_if<StreamFrame>(&f)) {
      counters_.stream_bytes_sent += sf->data.size();
    }
  }
  if (packet.ack_eliciting()) {
    const std::uint64_t pn = packet.packet_number;
    unacked_.emplace(pn, SentPacket{std::move(packet), loop_.now()});
    arm_pto();
  }
  sender_(std::move(datagram));
}

void QuicConnection::handle_datagram(std::span<const std::uint8_t> payload) {
  if (closed_) return;
  Packet packet;
  try {
    packet = Packet::decode(payload);
  } catch (const dns::WireError&) {
    return;  // garbage datagram: dropped, like real QUIC
  }
  ++counters_.packets_received;
  counters_.wire_bytes_received += Packet::udp_wire_size(payload.size());

  bool needs_ack = false;
  for (auto& frame : packet.frames) {
    if (is_ack_eliciting(frame)) needs_ack = true;
    handle_frame(frame);
    if (closed_) return;
  }
  if (needs_ack) {
    ack_pending_.push_back(packet.packet_number);
    schedule_ack();
  }
}

void QuicConnection::handle_frame(Frame& frame) {
  std::visit(
      [this](auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, AckFrame>) {
          bool newly_acked = false;
          for (const auto pn : f.acked) {
            const auto it = unacked_.find(pn);
            if (it == unacked_.end()) continue;
            // RTT sample (RFC 9002 §5): retransmitted frames travel in new
            // packet numbers, so every sample is unambiguous.
            const auto rtt =
                static_cast<double>(loop_.now() - it->second.sent_at);
            if (srtt_us_ == 0.0) {
              srtt_us_ = rtt;
              rttvar_us_ = rtt / 2.0;
            } else {
              rttvar_us_ =
                  0.75 * rttvar_us_ + 0.25 * std::abs(srtt_us_ - rtt);
              srtt_us_ = 0.875 * srtt_us_ + 0.125 * rtt;
            }
            unacked_.erase(it);
            newly_acked = true;
          }
          // RFC 9002 §6.2.1: acknowledged progress resets the backoff and
          // restarts the timer (or stops it once nothing is in flight).
          // Left armed from an old send, a busy connection's timer fires
          // spuriously, and eight such probes close it as idle.
          if (newly_acked) {
            loop_.cancel(pto_timer_);
            pto_timer_ = simnet::EventId{};
            pto_backoff_ = 0;
            arm_pto();
          }
        } else if constexpr (std::is_same_v<T, CryptoFrame>) {
          handle_crypto(f);
        } else if constexpr (std::is_same_v<T, StreamFrame>) {
          handle_stream(f);
        } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
          closed_ = true;
          loop_.cancel(pto_timer_);
          if (on_closed_) on_closed_();
        } else if constexpr (std::is_same_v<T, HandshakeDoneFrame>) {
          // Client: server confirmed the handshake; nothing further needed.
        } else if constexpr (std::is_same_v<T, PathChallengeFrame>) {
          // Echo on the (possibly new) path; never blocked on anything.
          send_frame(PathResponseFrame{f.data}, /*long_header=*/false);
        } else if constexpr (std::is_same_v<T, PathResponseFrame>) {
          if (outstanding_path_token_ != 0 &&
              f.data == outstanding_path_token_) {
            outstanding_path_token_ = 0;
            ++counters_.path_validations;
            if (on_path_validated_) on_path_validated_();
          }
        }
        // Padding and ping need no action.
      },
      frame);
}

void QuicConnection::handle_crypto(const CryptoFrame& frame) {
  counters_.handshake_bytes += frame.data.size();
  // Reassemble at the right offset (frames can arrive out of order).
  const std::size_t end = frame.offset + frame.data.size();
  if (crypto_rx_.size() < end) crypto_rx_.resize(end);
  std::copy(frame.data.begin(), frame.data.end(),
            crypto_rx_.begin() + static_cast<std::ptrdiff_t>(frame.offset));
  process_crypto_buffer();
}

void QuicConnection::process_crypto_buffer() {
  // Parse complete handshake messages (4-byte header + body).
  while (crypto_rx_.size() - crypto_rx_consumed_ >= 4) {
    dns::ByteReader peek(crypto_rx_);
    peek.seek(crypto_rx_consumed_ + 1);
    const std::size_t body_len =
        (static_cast<std::size_t>(peek.u8()) << 16) | peek.u16();
    const std::size_t total = 4 + body_len;
    if (crypto_rx_.size() - crypto_rx_consumed_ < total) return;
    dns::ByteReader r(crypto_rx_);
    r.seek(crypto_rx_consumed_);
    const auto msg = tlssim::decode_handshake(r);
    crypto_rx_consumed_ += total;
    handle_handshake_message(msg);
    if (closed_) return;
  }
}

void QuicConnection::handle_handshake_message(
    const tlssim::HandshakeMessage& msg) {
  switch (msg.type) {
    case HsType::kClientHello: {
      assert(role_ == Role::kServer);
      alpn_ = msg.client_hello->alpn.empty() ? "doq"
                                             : msg.client_hello->alpn.front();
      // Server flight: SH + EE + Certificate + CV + Finished, split across
      // packets so each stays under the MTU.
      const tlssim::CertificateChain& chain = server_tls_->chain;
      dns::ByteWriter flight;
      flight.reserve(tlssim::message_bytes(tlssim::kServerHello13Body) +
                     tlssim::message_bytes(tlssim::kEncryptedExtensionsBody) +
                     tlssim::message_bytes(chain.wire_bytes) +
                     tlssim::message_bytes(tlssim::kCertificateVerifyBody) +
                     tlssim::message_bytes(tlssim::kFinishedBody));
      tlssim::ServerHello sh;
      sh.version = tlssim::TlsVersion::kTls13;
      sh.alpn = alpn_;
      tlssim::encode_server_hello(flight, sh);
      tlssim::encode_plain(flight, HsType::kEncryptedExtensions,
                           tlssim::kEncryptedExtensionsBody);
      tlssim::encode_certificate(flight, chain);
      tlssim::encode_plain(flight, HsType::kCertificateVerify,
                           tlssim::kCertificateVerifyBody);
      tlssim::encode_plain(flight, HsType::kFinished, tlssim::kFinishedBody);

      const Bytes bytes = flight.take();
      counters_.handshake_bytes += bytes.size();
      std::size_t offset = 0;
      while (offset < bytes.size()) {
        const std::size_t chunk =
            std::min(kMaxPacketPayload, bytes.size() - offset);
        CryptoFrame crypto;
        crypto.offset = crypto_tx_offset_ + offset;
        crypto.data.assign(
            bytes.begin() + static_cast<std::ptrdiff_t>(offset),
            bytes.begin() + static_cast<std::ptrdiff_t>(offset + chunk));
        send_frame(std::move(crypto), /*long_header=*/true);
        offset += chunk;
      }
      crypto_tx_offset_ += bytes.size();
      return;
    }
    case HsType::kServerHello:
      assert(role_ == Role::kClient);
      alpn_ = msg.server_hello->alpn;
      return;
    case HsType::kEncryptedExtensions:
    case HsType::kCertificate:
    case HsType::kCertificateVerify:
      return;
    case HsType::kFinished: {
      if (role_ == Role::kClient) {
        // Reply with our Finished; the handshake is complete for us and we
        // may send 1-RTT data immediately.
        dns::ByteWriter fin;
        tlssim::encode_plain(fin, HsType::kFinished, tlssim::kFinishedBody);
        CryptoFrame crypto;
        crypto.offset = crypto_tx_offset_;
        crypto.data = fin.take();
        crypto_tx_offset_ += crypto.data.size();
        counters_.handshake_bytes += crypto.data.size();
        send_frame(std::move(crypto), /*long_header=*/true);
        become_established();
      } else {
        become_established();
        if (!handshake_done_sent_) {
          handshake_done_sent_ = true;
          send_frame(HandshakeDoneFrame{}, /*long_header=*/false);
        }
      }
      return;
    }
    default:
      return;
  }
}

void QuicConnection::become_established() {
  if (established_) return;
  established_ = true;
  if (on_established_) on_established_();
  flush_pending_streams();
}

std::uint64_t QuicConnection::open_stream() {
  const std::uint64_t id = next_stream_id_;
  next_stream_id_ += 4;  // QUIC stream-id spacing per initiator/direction
  return id;
}

void QuicConnection::send_stream(std::uint64_t stream_id, Bytes data,
                                 bool fin) {
  if (closed_) throw std::logic_error("send on closed QUIC connection");
  if (!established_) {
    pending_writes_.push_back({stream_id, std::move(data), fin});
    return;
  }
  const auto tx = tx_offsets_.try_emplace(stream_id, 0).first;
  std::uint64_t& offset = tx->second;
  std::size_t sent = 0;
  do {
    const std::size_t chunk =
        std::min(kMaxPacketPayload, data.size() - sent);
    StreamFrame frame;
    frame.stream_id = stream_id;
    frame.offset = offset;
    frame.data.assign(data.begin() + static_cast<std::ptrdiff_t>(sent),
                      data.begin() + static_cast<std::ptrdiff_t>(sent + chunk));
    sent += chunk;
    offset += chunk;
    frame.fin = fin && sent >= data.size();
    send_frame(std::move(frame), /*long_header=*/false);
  } while (sent < data.size());
  if (fin) tx_offsets_.erase(tx);  // the send side is finished
}

void QuicConnection::flush_pending_streams() {
  auto writes = std::move(pending_writes_);
  pending_writes_.clear();
  for (auto& w : writes) {
    send_stream(w.stream_id, std::move(w.data), w.fin);
  }
}

QuicConnection::RxStreams::iterator QuicConnection::rx_stream(
    std::uint64_t stream_id) {
  std::uint64_t& next = rx_next_[stream_id & 3];
  // Below the watermark: open, or finished and pruned (end()).
  if (stream_id < next) return rx_streams_.find(stream_id);
  // A peer that skips this many ids is broken; drop the frame.
  if ((stream_id - next) / 4 >= kMaxImplicitStreams) return rx_streams_.end();
  // RFC 9000 §2.1: using a stream id opens every lower one of its type.
  auto it = rx_streams_.end();
  for (; next <= stream_id; next += 4) {
    it = rx_streams_.emplace_hint(rx_streams_.end(), next, RxStream{});
  }
  return it;
}

void QuicConnection::handle_stream(StreamFrame& frame) {
  counters_.stream_bytes_received += frame.data.size();
  const auto it = rx_stream(frame.stream_id);
  if (it == rx_streams_.end()) return;  // e.g. a late duplicate
  RxStream& stream = it->second;
  if (frame.fin) {
    stream.fin_offset = frame.offset + frame.data.size();
  }
  if (!frame.data.empty()) {
    stream.segments.emplace(frame.offset, std::move(frame.data));
  }
  deliver_stream(it);
}

void QuicConnection::deliver_stream(RxStreams::iterator it) {
  const std::uint64_t stream_id = it->first;
  RxStream& stream = it->second;
  for (;;) {
    const auto seg = stream.segments.find(stream.delivered);
    if (seg == stream.segments.end()) {
      if (stream.fin_offset != stream.delivered) return;
      // The receive side is finished: prune it before the callback.
      rx_streams_.erase(it);
      if (on_stream_data_) on_stream_data_(stream_id, {}, true);
      return;
    }
    Bytes data = std::move(seg->second);
    stream.segments.erase(seg);
    stream.delivered += data.size();
    const bool fin = stream.fin_offset == stream.delivered;
    if (fin) rx_streams_.erase(it);
    if (on_stream_data_) on_stream_data_(stream_id, data, fin);
    if (fin) return;
  }
}

void QuicConnection::schedule_ack() {
  if (ack_scheduled_) return;
  ack_scheduled_ = true;
  // Flush at the end of the current instant so several packets arriving
  // together share one ACK.
  loop_.schedule_in(0, [this]() { flush_acks(); });
}

void QuicConnection::flush_acks() {
  ack_scheduled_ = false;
  if (ack_pending_.empty() || closed_) return;
  AckFrame ack;
  ack.acked = std::move(ack_pending_);
  ack_pending_.clear();
  send_frame(std::move(ack), /*long_header=*/!established_);
}

simnet::TimeUs QuicConnection::current_pto() const noexcept {
  if (srtt_us_ == 0.0) return config_.pto_initial;
  // RFC 9002 §6.2.1: PTO = smoothed RTT + max(4*rttvar, granularity)
  // + max_ack_delay (we flush ACKs immediately, so a small grace term).
  const double pto = srtt_us_ + std::max(4.0 * rttvar_us_, 1000.0) + 1000.0;
  return std::max<simnet::TimeUs>(static_cast<simnet::TimeUs>(pto),
                                  simnet::ms(10));
}

void QuicConnection::arm_pto() {
  if (pto_timer_.valid || unacked_.empty()) return;
  const simnet::TimeUs timeout =
      std::min(current_pto() << pto_backoff_, config_.pto_max);
  // The probe period runs from the oldest ack-eliciting packet in flight.
  const simnet::TimeUs elapsed =
      loop_.now() - unacked_.begin()->second.sent_at;
  const simnet::TimeUs delay = timeout > elapsed ? timeout - elapsed : 0;
  pto_timer_ = loop_.schedule_in(delay, [this]() {
    pto_timer_ = simnet::EventId{};
    on_pto();
  });
}

void QuicConnection::on_pto() {
  if (closed_ || unacked_.empty()) return;
  if (pto_backoff_ >= 8) {
    // Idle/handshake timeout: the peer has not acknowledged anything for
    // many probe periods; give the connection up rather than probing
    // forever (RFC 9000's idle timeout).
    close(/*error_code=*/1);
    return;
  }
  ++pto_backoff_;
  // Retransmit the ack-eliciting frames of every unacked packet in fresh
  // packets (QUIC never retransmits packets, only frames).
  auto lost = std::move(unacked_);
  unacked_.clear();
  for (auto& [pn, sent] : lost) {
    std::vector<Frame> frames;
    for (auto& f : sent.packet.frames) {
      if (is_ack_eliciting(f)) frames.push_back(std::move(f));
    }
    if (!frames.empty()) {
      ++counters_.retransmits;
      send_packet(std::move(frames), sent.packet.long_header);
    }
  }
}

void QuicConnection::probe_path() {
  if (closed_) return;
  outstanding_path_token_ = ++next_path_token_;
  send_frame(PathChallengeFrame{outstanding_path_token_},
             /*long_header=*/false);
}

void QuicConnection::close(std::uint64_t error_code) {
  if (closed_) return;
  send_frame(ConnectionCloseFrame{error_code}, /*long_header=*/false);
  closed_ = true;
  loop_.cancel(pto_timer_);
  pto_timer_ = simnet::EventId{};
  // Symmetric notification: locally-initiated closes also fire on_closed_
  // so owners can drop per-connection state before the object goes away.
  if (const auto on_closed = on_closed_) on_closed();
}

}  // namespace dohperf::quicsim
