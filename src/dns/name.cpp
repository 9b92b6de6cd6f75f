#include "dns/name.hpp"

#include <algorithm>

namespace dohperf::dns {

namespace {

constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 255;
constexpr std::uint8_t kPointerMask = 0xc0;
constexpr std::size_t kMaxPointer = 0x3fff;

/// ASCII case folding (RFC 4343): only 'A'-'Z' fold. Label length octets
/// are at most 63, below 'A', so whole wire buffers fold safely.
constexpr std::uint8_t fold(std::uint8_t c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<std::uint8_t>(c + ('a' - 'A'))
                              : c;
}

/// Three-way comparison of `n` bytes after case folding.
int compare_folded(const char* a, const char* b, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t x = fold(static_cast<std::uint8_t>(a[i]));
    const std::uint8_t y = fold(static_cast<std::uint8_t>(b[i]));
    if (x != y) return x < y ? -1 : 1;
  }
  return 0;
}

bool equal_folded(std::string_view a, std::string_view b) noexcept {
  return a.size() == b.size() && compare_folded(a.data(), b.data(), a.size()) == 0;
}

std::size_t label_length(std::string_view wire, std::size_t pos) noexcept {
  return static_cast<std::uint8_t>(wire[pos]);
}

/// True if the name written at `pos` in `out` (following the writer's own
/// compression pointers) equals the wire labels `suffix`, ignoring case.
bool written_name_equals(const Bytes& out, std::size_t pos,
                         std::string_view suffix) noexcept {
  std::size_t i = 0;
  for (;;) {
    const std::uint8_t len = out[pos];
    if ((len & kPointerMask) == kPointerMask) {
      pos = (static_cast<std::size_t>(len & 0x3f) << 8) | out[pos + 1];
      continue;
    }
    if (i == suffix.size()) return len == 0;
    if (len != label_length(suffix, i)) return false;
    if (compare_folded(reinterpret_cast<const char*>(out.data() + pos + 1),
                       suffix.data() + i + 1, len) != 0) {
      return false;
    }
    pos += 1 + len;
    i += 1 + len;
  }
}

}  // namespace

Name Name::parse(std::string_view text) {
  Name name;
  if (text.empty()) throw WireError("empty domain name");
  if (text == ".") return name;
  if (text.back() == '.') text.remove_suffix(1);
  name.wire_.reserve(text.size() + 1);
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::string_view label = dot == std::string_view::npos
                                       ? text.substr(start)
                                       : text.substr(start, dot - start);
    if (label.empty()) throw WireError("empty label in name: " + std::string(text));
    if (label.size() > kMaxLabel) {
      throw WireError("label exceeds 63 octets: " + std::string(label));
    }
    name.wire_ += static_cast<char>(label.size());
    name.wire_ += label;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  if (name.wire_length() > kMaxName) {
    throw WireError("name exceeds 255 octets: " + std::string(text));
  }
  return name;
}

std::string_view Name::label(std::size_t i) const noexcept {
  std::size_t pos = 0;
  for (; i > 0 && pos < wire_.size(); --i) pos += 1 + label_length(wire_, pos);
  if (pos >= wire_.size()) return {};
  return std::string_view(wire_).substr(pos + 1, label_length(wire_, pos));
}

std::size_t Name::label_count() const noexcept {
  std::size_t n = 0;
  for (std::size_t pos = 0; pos < wire_.size(); pos += 1 + label_length(wire_, pos)) {
    ++n;
  }
  return n;
}

std::string Name::to_string() const {
  if (wire_.empty()) return ".";
  std::string out;
  out.reserve(wire_.size());
  for (std::size_t pos = 0; pos < wire_.size();) {
    const std::size_t len = label_length(wire_, pos);
    if (pos != 0) out += '.';
    out.append(wire_, pos + 1, len);
    pos += 1 + len;
  }
  return out;
}

Name Name::parent() const {
  Name p;
  if (!wire_.empty()) p.wire_ = wire_.substr(1 + label_length(wire_, 0));
  return p;
}

Name Name::child(std::string_view label) const {
  if (label.empty() || label.size() > kMaxLabel) {
    throw WireError("invalid child label");
  }
  Name c;
  c.wire_.reserve(1 + label.size() + wire_.size());
  c.wire_ += static_cast<char>(label.size());
  c.wire_ += label;
  c.wire_ += wire_;
  if (c.wire_length() > kMaxName) throw WireError("child name too long");
  return c;
}

bool Name::is_subdomain_of(const Name& ancestor) const {
  const std::size_t want = ancestor.wire_.size();
  std::size_t pos = 0;
  while (wire_.size() - pos > want) pos += 1 + label_length(wire_, pos);
  return wire_.size() - pos == want &&
         equal_folded(std::string_view(wire_).substr(pos), ancestor.wire_);
}

bool Name::operator==(const Name& other) const noexcept {
  return equal_folded(wire_, other.wire_);
}

bool Name::operator<(const Name& other) const noexcept {
  const std::string_view a = wire_;
  const std::string_view b = other.wire_;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const std::size_t la = label_length(a, i);
    const std::size_t lb = label_length(b, j);
    const int c = compare_folded(a.data() + i + 1, b.data() + j + 1,
                                 std::min(la, lb));
    if (c != 0) return c < 0;
    if (la != lb) return la < lb;
    i += 1 + la;
    j += 1 + lb;
  }
  return i == a.size() && j < b.size();
}

void NameCompressor::remember(std::uint16_t off) {
  if (count_ < kInline) {
    inline_[count_] = off;
  } else {
    spill_.push_back(off);
  }
  ++count_;
}

void NameCompressor::write(ByteWriter& w, const Name& name) {
  const std::string_view wire = name.wire_;
  // Only earlier names are candidates: this name's own suffixes are not
  // terminated yet, and none of them can equal a longer one anyway.
  const std::size_t earlier = count_;
  for (std::size_t pos = 0; pos < wire.size();) {
    if (enabled_) {
      const std::string_view suffix = wire.substr(pos);
      for (std::size_t k = 0; k < earlier; ++k) {
        const std::uint16_t off = offset(k);
        if (written_name_equals(w.data(), off, suffix)) {
          // Emit a two-octet pointer to the earlier occurrence and stop.
          w.u16(static_cast<std::uint16_t>(0xc000 | off));
          return;
        }
      }
      // Remember this suffix for later names (only if its offset fits the
      // 14-bit pointer field).
      if (w.size() <= kMaxPointer) {
        remember(static_cast<std::uint16_t>(w.size()));
      }
    }
    const std::size_t len = 1 + label_length(wire, pos);
    w.string(wire.substr(pos, len));
    pos += len;
  }
  w.u8(0);  // root label terminator
}

Name read_name(ByteReader& r) {
  // Labels land in a stack buffer first so the name's own buffer is
  // allocated once, at its final size.
  std::array<char, kMaxName> buf{};
  std::size_t size = 0;
  // Loop protection: a valid chain can never visit more positions than the
  // message has bytes.
  std::size_t jumps = 0;
  const std::size_t max_jumps = r.data().size() + 1;
  bool jumped = false;
  std::size_t resume = 0;

  for (;;) {
    const std::uint8_t len = r.u8();
    if ((len & kPointerMask) == kPointerMask) {
      // Compression pointer: 14-bit offset into the message.
      const std::uint8_t lo = r.u8();
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | lo;
      if (!jumped) {
        resume = r.offset();
        jumped = true;
      }
      if (++jumps > max_jumps) throw WireError("compression pointer loop");
      r.seek(target);
      continue;
    }
    if ((len & kPointerMask) != 0) {
      throw WireError("reserved label type");
    }
    if (len == 0) break;  // root terminator
    // +1 for the terminating zero octet the buffer leaves out.
    if (size + 1 + len + 1 > kMaxName) {
      throw WireError("decoded name exceeds 255 octets");
    }
    const auto bytes = r.view(len);
    buf[size] = static_cast<char>(len);
    std::copy(bytes.begin(), bytes.end(), buf.begin() + size + 1);
    size += 1 + len;
  }
  if (jumped) r.seek(resume);

  Name out;
  out.wire_.assign(buf.data(), size);
  return out;
}

}  // namespace dohperf::dns
