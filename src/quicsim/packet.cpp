#include "quicsim/packet.hpp"

#include "simnet/packet.hpp"

namespace dohperf::quicsim {

using dns::ByteReader;
using dns::ByteWriter;
using dns::WireError;

bool is_ack_eliciting(const Frame& frame) noexcept {
  return !std::holds_alternative<AckFrame>(frame) &&
         !std::holds_alternative<PaddingFrame>(frame);
}

bool Packet::ack_eliciting() const noexcept {
  for (const auto& f : frames) {
    if (is_ack_eliciting(f)) return true;
  }
  return false;
}

void encode_frame(ByteWriter& w, const Frame& frame) {
  std::visit(
      [&w](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, PaddingFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kPadding));
          w.u16(f.length);
          w.zeros(f.length);
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kPing));
        } else if constexpr (std::is_same_v<T, AckFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kAck));
          w.u16(static_cast<std::uint16_t>(f.acked.size()));
          for (const auto pn : f.acked) w.u32(static_cast<std::uint32_t>(pn));
        } else if constexpr (std::is_same_v<T, CryptoFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kCrypto));
          w.u32(static_cast<std::uint32_t>(f.offset));
          w.u16(static_cast<std::uint16_t>(f.data.size()));
          w.bytes(f.data);
        } else if constexpr (std::is_same_v<T, StreamFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kStream));
          w.u32(static_cast<std::uint32_t>(f.stream_id));
          w.u32(static_cast<std::uint32_t>(f.offset));
          w.u8(f.fin ? 1 : 0);
          w.u16(static_cast<std::uint16_t>(f.data.size()));
          w.bytes(f.data);
        } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kConnectionClose));
          w.u32(static_cast<std::uint32_t>(f.error_code));
        } else if constexpr (std::is_same_v<T, HandshakeDoneFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kHandshakeDone));
        } else if constexpr (std::is_same_v<T, PathChallengeFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kPathChallenge));
          w.u32(static_cast<std::uint32_t>(f.data >> 32));
          w.u32(static_cast<std::uint32_t>(f.data & 0xffffffff));
        } else if constexpr (std::is_same_v<T, PathResponseFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kPathResponse));
          w.u32(static_cast<std::uint32_t>(f.data >> 32));
          w.u32(static_cast<std::uint32_t>(f.data & 0xffffffff));
        }
      },
      frame);
}

Frame decode_frame(ByteReader& r) {
  const auto type = static_cast<FrameType>(r.u8());
  switch (type) {
    case FrameType::kPadding: {
      PaddingFrame f;
      f.length = r.u16();
      r.skip(f.length);
      return f;
    }
    case FrameType::kPing:
      return PingFrame{};
    case FrameType::kAck: {
      AckFrame f;
      const std::uint16_t n = r.u16();
      f.acked.reserve(n);
      for (std::uint16_t i = 0; i < n; ++i) f.acked.push_back(r.u32());
      return f;
    }
    case FrameType::kCrypto: {
      CryptoFrame f;
      f.offset = r.u32();
      const std::uint16_t len = r.u16();
      f.data = r.bytes(len);
      return f;
    }
    case FrameType::kStream: {
      StreamFrame f;
      f.stream_id = r.u32();
      f.offset = r.u32();
      f.fin = r.u8() != 0;
      const std::uint16_t len = r.u16();
      f.data = r.bytes(len);
      return f;
    }
    case FrameType::kConnectionClose: {
      ConnectionCloseFrame f;
      f.error_code = r.u32();
      return f;
    }
    case FrameType::kHandshakeDone:
      return HandshakeDoneFrame{};
    case FrameType::kPathChallenge: {
      PathChallengeFrame f;
      const std::uint64_t hi = r.u32();
      const std::uint64_t lo = r.u32();
      f.data = (hi << 32) | lo;
      return f;
    }
    case FrameType::kPathResponse: {
      PathResponseFrame f;
      const std::uint64_t hi = r.u32();
      const std::uint64_t lo = r.u32();
      f.data = (hi << 32) | lo;
      return f;
    }
  }
  throw WireError("unknown QUIC frame type");
}

std::size_t encoded_size(const Frame& frame) noexcept {
  return std::visit(
      [](const auto& f) -> std::size_t {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, PaddingFrame>) {
          return 3 + f.length;
        } else if constexpr (std::is_same_v<T, AckFrame>) {
          return 3 + 4 * f.acked.size();
        } else if constexpr (std::is_same_v<T, CryptoFrame>) {
          return 7 + f.data.size();
        } else if constexpr (std::is_same_v<T, StreamFrame>) {
          return 12 + f.data.size();
        } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
          return 5;
        } else if constexpr (std::is_same_v<T, PathChallengeFrame> ||
                             std::is_same_v<T, PathResponseFrame>) {
          return 9;
        } else {
          return 1;  // PING, HANDSHAKE_DONE: the type byte alone
        }
      },
      frame);
}

std::size_t Packet::frames_size() const noexcept {
  std::size_t total = 0;
  for (const auto& f : frames) total += encoded_size(f);
  return total;
}

std::size_t Packet::header_size(bool long_header) noexcept {
  return (long_header ? kLongHeaderBytes : kShortHeaderBytes) + 2;
}

Bytes Packet::encode() const {
  const std::size_t frames_len = frames_size();
  ByteWriter w;
  w.reserve(header_size(long_header) + frames_len + kAeadTagBytes);
  // Header: flags byte encodes form; fixed-size connection id + packet
  // number fields (we count realistic sizes via explicit padding below).
  w.u8(long_header ? 0xc0 : 0x40);
  w.u32(static_cast<std::uint32_t>(connection_id >> 32));
  w.u32(static_cast<std::uint32_t>(connection_id & 0xffffffff));
  w.u32(static_cast<std::uint32_t>(packet_number));
  // Bring the header bytes up to the modelled sizes (long headers carry a
  // version and source-cid fields we do not need structurally).
  const std::size_t header_target =
      long_header ? kLongHeaderBytes : kShortHeaderBytes;
  if (w.size() > header_target) {
    throw WireError("QUIC header fields exceed modelled header size");
  }
  w.zeros(header_target - w.size());
  w.u16(static_cast<std::uint16_t>(frames_len));
  for (const auto& f : frames) encode_frame(w, f);

  // Synthetic AEAD tag.
  w.zeros(kAeadTagBytes);
  return w.take();
}

Packet Packet::decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  Packet p;
  const std::uint8_t flags = r.u8();
  p.long_header = (flags & 0x80) != 0;
  const std::uint64_t hi = r.u32();
  const std::uint64_t lo = r.u32();
  p.connection_id = (hi << 32) | lo;
  p.packet_number = r.u32();
  const std::size_t header_target =
      p.long_header ? kLongHeaderBytes : kShortHeaderBytes;
  r.seek(header_target);
  const std::uint16_t frames_len = r.u16();
  const std::size_t frames_end = r.offset() + frames_len;
  if (frames_end + kAeadTagBytes > payload.size()) {
    throw WireError("QUIC packet truncated");
  }
  while (r.offset() < frames_end) {
    p.frames.push_back(decode_frame(r));
  }
  return p;
}

std::size_t Packet::udp_wire_size(std::size_t payload_bytes) noexcept {
  return simnet::kIpHeaderBytes + simnet::kUdpHeaderBytes + payload_bytes;
}

std::size_t Packet::udp_wire_size() const noexcept {
  return udp_wire_size(header_size(long_header) + frames_size() +
                       kAeadTagBytes);
}

}  // namespace dohperf::quicsim
