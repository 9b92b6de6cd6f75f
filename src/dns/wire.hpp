// Big-endian byte-level reader/writer primitives shared by every protocol
// codec in this repository (DNS, TLS records, HTTP/2 frames).
//
// Decoding errors are reported via WireError (derived from std::runtime_error)
// rather than a result type: every caller of the codecs treats a malformed
// message as fatal to that message and catches at the message boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dohperf::dns {

using Bytes = std::vector<std::uint8_t>;

/// Thrown when a decoder runs off the end of its input or meets a value
/// that violates the wire format.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Sequential big-endian reader over a non-owning byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  std::size_t offset() const noexcept { return offset_; }
  std::size_t remaining() const noexcept { return data_.size() - offset_; }
  bool exhausted() const noexcept { return offset_ >= data_.size(); }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();

  /// Read `n` raw bytes.
  Bytes bytes(std::size_t n);

  /// Read `n` raw bytes without copying them out of the input.
  std::span<const std::uint8_t> view(std::size_t n);

  /// Read `n` bytes as a string (used for DNS labels and TXT segments).
  std::string string(std::size_t n);

  /// Peek a byte at absolute position `pos` without consuming.
  std::uint8_t peek_at(std::size_t pos) const;

  /// Jump to absolute offset (used to follow DNS compression pointers).
  void seek(std::size_t pos);

  /// Skip `n` bytes.
  void skip(std::size_t n);

  std::span<const std::uint8_t> data() const noexcept { return data_; }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

/// Append-only big-endian writer.
///
/// The first write reserves kFirstReserve octets, so a small writer (a TLS
/// record header, an alert) allocates once instead of regrowing 1, 2, 4, 8;
/// later growth doubles. Encoders that know their final size reserve() it.
class ByteWriter {
 public:
  /// The arena's smallest size class: a smaller buffer costs the same.
  static constexpr std::size_t kFirstReserve = 32;

  std::size_t size() const noexcept { return out_.size(); }

  /// Reserve room for `n` octets in total.
  void reserve(std::size_t n) { out_.reserve(n); }

  void u8(std::uint8_t v) {
    room(1);
    out_.push_back(v);
  }
  void u16(std::uint16_t v) {
    room(2);
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v & 0xff));
  }
  void u32(std::uint32_t v) {
    room(4);
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
    out_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
    out_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
    out_.push_back(static_cast<std::uint8_t>(v & 0xff));
  }
  void bytes(std::span<const std::uint8_t> data);
  void string(std::string_view s);
  /// Append `n` zero octets in one step (padding, synthetic AEAD tags).
  void zeros(std::size_t n);

  /// Overwrite a previously written 16-bit field (e.g. RDLENGTH backpatch).
  void patch_u16(std::size_t pos, std::uint16_t v);
  /// Overwrite a previously written 24-bit field (TLS handshake length).
  void patch_u24(std::size_t pos, std::uint32_t v);

  const Bytes& data() const noexcept { return out_; }
  Bytes take() noexcept { return std::move(out_); }

 private:
  void room(std::size_t n) {
    if (out_.capacity() - out_.size() < n) grow(n);
  }
  /// Out of line: reserve max(kFirstReserve, size + n, 2 * capacity).
  void grow(std::size_t n);

  Bytes out_;
};

/// Convenience conversions.
Bytes to_bytes(std::string_view s);
std::string to_string(std::span<const std::uint8_t> b);

}  // namespace dohperf::dns
