// Domain names (RFC 1035 §3.1) with full wire-format support including
// message compression (RFC 1035 §4.1.4).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dns/wire.hpp"

namespace dohperf::dns {

/// A fully-qualified domain name stored as its uncompressed wire labels in
/// one buffer: each label is a length octet followed by its bytes, with no
/// terminating zero octet (the root name is the empty buffer). Comparison
/// folds ASCII case (RFC 4343); the original casing is preserved for
/// presentation and on the wire.
class Name {
 public:
  Name() = default;  ///< the root name "."

  /// Parse from presentation format ("www.example.com", trailing dot
  /// optional). Throws WireError on invalid names (empty labels, label
  /// > 63 octets, total length > 255 octets).
  static Name parse(std::string_view text);

  /// The root name ".".
  static Name root() { return Name{}; }

  /// The i-th label from the left (0 = the leftmost, e.g. "www").
  std::string_view label(std::size_t i) const noexcept;
  bool is_root() const noexcept { return wire_.empty(); }
  std::size_t label_count() const noexcept;

  /// Presentation form without trailing dot (root renders as ".").
  std::string to_string() const;

  /// Length of the uncompressed wire encoding in octets (labels + lengths
  /// + terminating zero octet).
  std::size_t wire_length() const noexcept { return wire_.size() + 1; }

  /// The name with its first label removed ("www.example.com" -> "example.com").
  /// The parent of the root is the root.
  Name parent() const;

  /// Prepend a label ("www" + "example.com" -> "www.example.com").
  Name child(std::string_view label) const;

  /// True if this name equals `ancestor` or is a subdomain of it.
  bool is_subdomain_of(const Name& ancestor) const;

  bool operator==(const Name& other) const noexcept;
  bool operator!=(const Name& other) const noexcept { return !(*this == other); }
  /// Canonical ordering so Name can key std::map: label by label from the
  /// left, case-folded bytes, a shorter label first, then fewer labels.
  bool operator<(const Name& other) const noexcept;

 private:
  friend class NameCompressor;
  friend Name read_name(ByteReader& r);

  std::string wire_;
};

/// Writes names into a message, encoding a suffix already present in the
/// message as a compression pointer to it. It remembers where each suffix
/// it wrote in full starts (the first occurrence wins) and finds a match by
/// comparing the suffix's labels with the bytes already written.
class NameCompressor {
 public:
  /// When `enabled` is false every name is written in full.
  explicit NameCompressor(bool enabled = true) : enabled_(enabled) {}

  /// Write `name` at the writer's current position, reusing previously
  /// written suffixes via pointers where possible (offsets must fit in the
  /// 14-bit pointer field).
  void write(ByteWriter& w, const Name& name);

 private:
  /// Offsets held without allocating; a message that writes more suffixes
  /// spills the rest to `spill_` (the list has no cap).
  static constexpr std::size_t kInline = 64;

  std::uint16_t offset(std::size_t i) const noexcept {
    return i < kInline ? inline_[i] : spill_[i - kInline];
  }
  void remember(std::uint16_t off);

  bool enabled_;
  std::size_t count_ = 0;
  std::array<std::uint16_t, kInline> inline_{};
  std::vector<std::uint16_t> spill_;
};

/// Read a possibly-compressed name starting at the reader's position.
/// Follows compression pointers with loop protection; the reader is left
/// positioned just after the name's in-line portion.
Name read_name(ByteReader& r);

}  // namespace dohperf::dns
