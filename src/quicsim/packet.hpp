// QUIC packet encode/decode: one packet per UDP datagram (no coalescing),
// long headers during the handshake, short headers after.
#pragma once

#include "quicsim/types.hpp"

namespace dohperf::quicsim {

struct Packet {
  bool long_header = false;
  std::uint64_t connection_id = 0;
  std::uint64_t packet_number = 0;
  std::vector<Frame> frames;

  /// Serialized size of the frames only (header/tag added by encode()),
  /// computed from the fields without encoding anything.
  std::size_t frames_size() const noexcept;

  /// Header bytes before the frames: the modelled header plus the 2-byte
  /// frame-bytes length.
  static std::size_t header_size(bool long_header) noexcept;

  bool ack_eliciting() const noexcept;

  /// Encode to a UDP payload: header + frames (+ synthetic AEAD tag), in
  /// one exactly sized buffer.
  Bytes encode() const;

  /// Decode a UDP payload. Throws dns::WireError on malformed input.
  static Packet decode(std::span<const std::uint8_t> payload);

  /// Wire size on the simulated network once sent over UDP (adds IP+UDP).
  std::size_t udp_wire_size() const noexcept;
  /// Wire size of a UDP datagram carrying `payload_bytes`.
  static std::size_t udp_wire_size(std::size_t payload_bytes) noexcept;
};

/// Serialized size of one frame, equal to what encode_frame() appends.
std::size_t encoded_size(const Frame& frame) noexcept;
void encode_frame(dns::ByteWriter& w, const Frame& frame);
Frame decode_frame(dns::ByteReader& r);

}  // namespace dohperf::quicsim
