// Property-based tests: invariants checked over parameterized sweeps and
// seeded random inputs rather than hand-picked cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>

#include "dns/base64url.hpp"
#include "dns/json.hpp"
#include "dns/message.hpp"
#include "http1/message.hpp"
#include "http2/hpack.hpp"
#include "stats/rng.hpp"

namespace dohperf {
namespace {

using dns::Bytes;

// --- DNS message round-trip over a generated message space --------------------

struct MessageShape {
  std::size_t answers;
  std::size_t labels;
  bool compress;
};

class DnsRoundTrip : public ::testing::TestWithParam<MessageShape> {};

TEST_P(DnsRoundTrip, EncodeDecodeIsIdentity) {
  const auto shape = GetParam();
  stats::SplitMix64 rng(shape.answers * 131 + shape.labels);

  dns::Name owner = dns::Name::root();
  for (std::size_t i = 0; i < shape.labels; ++i) {
    owner = owner.child("l" + std::to_string(rng.next_below(100)));
  }
  auto query = dns::Message::make_query(
      static_cast<std::uint16_t>(rng.next()), owner);
  dns::Message response = dns::Message::make_response(query, {});
  for (std::size_t i = 0; i < shape.answers; ++i) {
    response.answers.push_back(dns::ResourceRecord::a(
        owner, "10." + std::to_string(rng.next_below(256)) + ".0.1",
        static_cast<std::uint32_t>(rng.next_below(86400))));
  }
  const auto decoded =
      dns::Message::decode(response.encode(shape.compress));
  EXPECT_EQ(decoded, response);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DnsRoundTrip,
    ::testing::Values(MessageShape{0, 1, true}, MessageShape{0, 1, false},
                      MessageShape{1, 3, true}, MessageShape{5, 2, true},
                      MessageShape{5, 2, false}, MessageShape{20, 4, true},
                      MessageShape{50, 6, true}, MessageShape{50, 6, false},
                      MessageShape{200, 5, true}));

// --- DNS decoder never crashes on garbage ---------------------------------------

class DnsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DnsFuzz, RandomBytesEitherDecodeOrThrowWireError) {
  stats::SplitMix64 rng(GetParam());
  for (int round = 0; round < 500; ++round) {
    Bytes garbage(rng.next_below(120));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    try {
      const auto m = dns::Message::decode(garbage);
      // Decoding may legitimately succeed; re-encoding must not throw.
      (void)m.encode();
    } catch (const dns::WireError&) {
      // expected for malformed input
    }
  }
}

TEST_P(DnsFuzz, TruncationsOfValidMessagesThrow) {
  stats::SplitMix64 rng(GetParam() ^ 0xfeed);
  auto query = dns::Message::make_query(
      7, dns::Name::parse("a.b.example.com"), dns::RType::kA);
  query.answers.push_back(
      dns::ResourceRecord::txt(dns::Name::parse("example.com"), "hello"));
  const auto wire = query.encode();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes partial(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_THROW(dns::Message::decode(partial), dns::WireError)
        << "cut=" << cut;
  }
}

TEST_P(DnsFuzz, BitFlipsNeverCrash) {
  stats::SplitMix64 rng(GetParam() ^ 0xbeef);
  const auto base = dns::Message::make_query(
      7, dns::Name::parse("www.example.com")).encode();
  for (int round = 0; round < 1000; ++round) {
    Bytes mutated = base;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    try {
      (void)dns::Message::decode(mutated);
    } catch (const dns::WireError&) {
    }
  }
}

// --- the name compressor against a map-based oracle -----------------------------

/// The map-based compressor: the lowercased suffix text keys the offset of
/// its first occurrence. It is only correct for labels without dots, which
/// is all the generator below produces.
class OracleCompressor {
 public:
  explicit OracleCompressor(bool enabled) : enabled_(enabled) {}

  void write(dns::ByteWriter& w, const dns::Name& name) {
    for (std::size_t i = 0; i < name.label_count(); ++i) {
      std::string key;
      for (std::size_t j = i; j < name.label_count(); ++j) {
        if (!key.empty()) key += '.';
        for (const char c : name.label(j)) {
          key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
      }
      const auto it = offsets_.find(key);
      if (enabled_ && it != offsets_.end()) {
        w.u16(static_cast<std::uint16_t>(0xc000 | it->second));
        return;
      }
      if (w.size() <= 0x3fff) offsets_.emplace(key, w.size());
      last_label_offset = std::max(last_label_offset, w.size());
      w.u8(static_cast<std::uint8_t>(name.label(i).size()));
      w.string(name.label(i));
    }
    w.u8(0);
  }

  std::size_t remembered() const { return offsets_.size(); }
  std::size_t last_label_offset = 0;  ///< highest offset a label was written at

 private:
  bool enabled_;
  std::map<std::string, std::size_t> offsets_;
};

/// Message::encode for the record types random_message() generates, with
/// the oracle compressor.
Bytes oracle_encode(const dns::Message& m, OracleCompressor& c) {
  dns::ByteWriter w;
  for (const std::uint16_t v :
       {m.id, m.flags.encode(), static_cast<std::uint16_t>(m.questions.size()),
        static_cast<std::uint16_t>(m.answers.size()),
        static_cast<std::uint16_t>(m.authorities.size()),
        static_cast<std::uint16_t>(m.additionals.size())}) {
    w.u16(v);
  }
  for (const auto& q : m.questions) {
    c.write(w, q.qname);
    w.u16(static_cast<std::uint16_t>(q.qtype));
    w.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto* section : {&m.answers, &m.authorities, &m.additionals}) {
    for (const auto& rr : *section) {
      c.write(w, rr.name);
      w.u16(static_cast<std::uint16_t>(rr.type));
      w.u16(static_cast<std::uint16_t>(rr.rclass));
      w.u32(rr.ttl);
      const std::size_t len_pos = w.size();
      w.u16(0);
      if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata)) {
        w.bytes(a->addr);
      } else if (const auto* cname = std::get_if<dns::CnameRdata>(&rr.rdata)) {
        c.write(w, cname->target);
      } else if (const auto* mx = std::get_if<dns::MxRdata>(&rr.rdata)) {
        w.u16(mx->preference);
        c.write(w, mx->exchange);
      } else if (const auto* soa = std::get_if<dns::SoaRdata>(&rr.rdata)) {
        c.write(w, soa->mname);
        c.write(w, soa->rname);
        for (const std::uint32_t v : {soa->serial, soa->refresh, soa->retry,
                                      soa->expire, soa->minimum}) {
          w.u32(v);
        }
      } else {
        for (const auto& s : std::get<dns::TxtRdata>(rr.rdata).strings) {
          w.u8(static_cast<std::uint8_t>(s.size()));
          w.string(s);
        }
      }
      w.patch_u16(len_pos, static_cast<std::uint16_t>(w.size() - len_pos - 2));
    }
  }
  return w.take();
}

/// A label of 1-12 characters (now and then up to 63) in random case.
std::string random_label(stats::SplitMix64& rng) {
  static constexpr std::string_view kChars = "abcxyzABCXYZ0189-";
  const std::size_t len =
      rng.next_below(16) == 0 ? 1 + rng.next_below(63) : 1 + rng.next_below(12);
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out += kChars[rng.next_below(kChars.size())];
  }
  return out;
}

/// The same name with every letter's case redrawn.
dns::Name recase(const dns::Name& name, stats::SplitMix64& rng) {
  dns::Name out;
  for (std::size_t i = name.label_count(); i-- > 0;) {
    std::string label(name.label(i));
    for (char& ch : label) {
      const auto u = static_cast<unsigned char>(ch);
      if (std::isalpha(u) != 0) {
        ch = static_cast<char>(rng.next_below(2) ? std::toupper(u)
                                                 : std::tolower(u));
      }
    }
    out = out.child(label);
  }
  return out;
}

/// A few labels over one of a handful of shared zones, in random case, so
/// names share suffixes and differ only in case.
dns::Name random_name(stats::SplitMix64& rng,
                      const std::vector<dns::Name>& zones) {
  dns::Name name = zones[rng.next_below(zones.size())];
  for (std::size_t i = rng.next_below(4); i > 0; --i) {
    const std::string label = random_label(rng);
    if (name.wire_length() + 1 + label.size() > 255) break;
    name = name.child(label);
  }
  return recase(name, rng);
}

/// A random response: one question, then `records` records spread over the
/// three sections (A, CNAME, MX, SOA, TXT; the TXT RDATA runs to ~2 KiB
/// when `big_txt` is set, which pushes later names past offset 0x3fff).
dns::Message random_message(stats::SplitMix64& rng, std::size_t records,
                            bool big_txt) {
  std::vector<dns::Name> zones;
  for (std::size_t i = 0; i < 4; ++i) {
    dns::Name zone;
    for (std::size_t j = 1 + rng.next_below(3); j > 0; --j) {
      zone = zone.child(random_label(rng));
    }
    zones.push_back(zone);
  }
  dns::Message m;
  m.id = static_cast<std::uint16_t>(rng.next());
  m.flags.qr = true;
  m.questions.push_back({random_name(rng, zones), dns::RType::kA,
                         dns::RClass::kIN});
  for (std::size_t i = 0; i < records; ++i) {
    dns::ResourceRecord rr;
    rr.name = random_name(rng, zones);
    rr.ttl = static_cast<std::uint32_t>(rng.next_below(86400));
    switch (rng.next_below(5)) {
      case 0:
        rr.type = dns::RType::kA;
        rr.rdata = dns::ARdata{{10, 0, 0, static_cast<std::uint8_t>(i)}};
        break;
      case 1:
        rr.type = dns::RType::kCNAME;
        rr.rdata = dns::CnameRdata{random_name(rng, zones)};
        break;
      case 2:
        rr.type = dns::RType::kMX;
        rr.rdata = dns::MxRdata{static_cast<std::uint16_t>(i),
                                random_name(rng, zones)};
        break;
      case 3:
        rr.type = dns::RType::kSOA;
        rr.rdata = dns::SoaRdata{random_name(rng, zones),
                                 random_name(rng, zones), 1, 2, 3, 4, 5};
        break;
      default: {
        rr.type = dns::RType::kTXT;
        dns::TxtRdata txt;
        for (std::size_t s = big_txt ? 8 : 1 + rng.next_below(2); s > 0; --s) {
          txt.strings.emplace_back(big_txt ? 255 : rng.next_below(20), 't');
        }
        rr.rdata = std::move(txt);
        break;
      }
    }
    auto& section = i % 3 == 0   ? m.answers
                    : i % 3 == 1 ? m.authorities
                                 : m.additionals;
    section.push_back(std::move(rr));
  }
  return m;
}

struct CodecShape {
  std::size_t records;
  bool big_txt;
  bool compress;
};

class NameCompressorOracle : public ::testing::TestWithParam<CodecShape> {};

TEST_P(NameCompressorOracle, EncodeMatchesMapBasedCompressorByteForByte) {
  const auto shape = GetParam();
  stats::SplitMix64 rng(shape.records * 977 + (shape.big_txt ? 13 : 0) +
                        (shape.compress ? 1 : 0));
  std::size_t most_remembered = 0;
  std::size_t furthest_label = 0;
  for (int round = 0; round < 40; ++round) {
    const auto m = random_message(rng, shape.records, shape.big_txt);
    OracleCompressor oracle(shape.compress);
    const Bytes expected = oracle_encode(m, oracle);
    const Bytes wire = m.encode(shape.compress);
    ASSERT_EQ(wire, expected) << "round " << round;
    EXPECT_EQ(dns::Message::decode(wire), m) << "round " << round;
    most_remembered = std::max(most_remembered, oracle.remembered());
    furthest_label = std::max(furthest_label, oracle.last_label_offset);
  }
  // The shapes really reach the regimes they are meant to cover.
  if (shape.records >= 100) {
    EXPECT_GT(most_remembered, 64u);
  }
  if (shape.big_txt) {
    EXPECT_GT(furthest_label, 0x3fffu);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NameCompressorOracle,
    ::testing::Values(CodecShape{0, false, true}, CodecShape{6, false, true},
                      CodecShape{6, false, false}, CodecShape{120, false, true},
                      CodecShape{120, false, false}, CodecShape{40, true, true},
                      CodecShape{40, true, false}));

// --- structure-aware mutation of valid responses --------------------------------

/// Where each name of a well-formed message starts: question and owner
/// names plus the names inside CNAME, MX and SOA RDATA.
std::vector<std::size_t> name_offsets(const Bytes& wire) {
  dns::ByteReader r(wire);
  std::vector<std::size_t> out;
  const auto name = [&]() {
    out.push_back(r.offset());
    (void)dns::read_name(r);
  };
  r.skip(4);
  const std::size_t qd = r.u16();
  const std::size_t rrs = std::size_t{r.u16()} + r.u16() + r.u16();
  for (std::size_t i = 0; i < qd; ++i) {
    name();
    r.skip(4);
  }
  for (std::size_t i = 0; i < rrs; ++i) {
    name();
    const auto type = static_cast<dns::RType>(r.u16());
    r.skip(6);
    const std::size_t end = r.u16() + r.offset();
    if (type == dns::RType::kMX) r.skip(2);
    if (type == dns::RType::kCNAME || type == dns::RType::kMX) name();
    if (type == dns::RType::kSOA) {
      name();
      name();
    }
    r.seek(end);
  }
  return out;
}

void put_pointer(Bytes& wire, std::size_t at, std::size_t target) {
  wire[at] = static_cast<std::uint8_t>(0xc0 | ((target >> 8) & 0x3f));
  wire[at + 1] = static_cast<std::uint8_t>(target & 0xff);
}

/// A mutated message must be rejected with WireError, or survive a second
/// encode/decode cycle unchanged. Returns true if it was accepted.
bool expect_rejected_or_stable(const Bytes& wire) {
  dns::Message decoded;
  try {
    decoded = dns::Message::decode(wire);
  } catch (const dns::WireError&) {
    return false;
  }
  for (const bool compress : {true, false}) {
    EXPECT_EQ(dns::Message::decode(decoded.encode(compress)), decoded);
  }
  return true;
}

TEST_P(DnsFuzz, StructureAwareMutationsOfResponsesAreRejectedOrStable) {
  stats::SplitMix64 rng(GetParam() ^ 0x5eed);
  std::size_t loops_rejected = 0;
  std::size_t accepted = 0;
  for (int round = 0; round < 300; ++round) {
    const Bytes base = random_message(rng, 1 + rng.next_below(8), false).encode();
    const auto names = name_offsets(base);
    const std::size_t p = names[rng.next_below(names.size())];
    const std::size_t q = names[rng.next_below(names.size())];
    Bytes wire = base;
    switch (round % 5) {
      case 0:  // a pointer to itself, or a two-name cycle
        put_pointer(wire, p, q);
        put_pointer(wire, q, p);
        if (p == q || q + 1 < p || p + 1 < q) {
          EXPECT_THROW(dns::Message::decode(wire), dns::WireError);
          ++loops_rejected;
        }
        break;
      case 1:  // a forward pointer, possibly past the end
        put_pointer(wire, p, p + 1 + rng.next_below(wire.size() - p + 8));
        break;
      case 2: {  // a pointer into the middle of a label
        const std::size_t len = base[q];
        if (len == 0 || len >= 0xc0) continue;
        put_pointer(wire, p, q + 1 + rng.next_below(len));
        break;
      }
      case 3:  // a label length that runs past the end of the message
        if (wire[p] == 0 || wire[p] >= 0xc0) continue;
        wire[p] = 63;
        wire.resize(p + 1 + rng.next_below(63));
        EXPECT_THROW(dns::Message::decode(wire), dns::WireError);
        break;
      default:  // a pointer to any offset
        put_pointer(wire, p, rng.next_below(wire.size() + 8));
        break;
    }
    if (expect_rejected_or_stable(wire)) ++accepted;
  }
  // Both outcomes occur: the mutations are neither all fatal nor all benign.
  EXPECT_GT(loops_rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

/// A query whose name is `octets` long on the wire, made of 63-octet labels.
Bytes query_with_name_octets(std::size_t octets) {
  dns::ByteWriter w;
  for (const std::uint16_t v : std::initializer_list<std::uint16_t>{
           0, 0x0100, 1, 0, 0, 0}) {
    w.u16(v);
  }
  for (std::size_t left = octets - 1; left > 0;) {
    const std::size_t len = std::min<std::size_t>(63, left - 1);
    w.u8(static_cast<std::uint8_t>(len));
    w.string(std::string(len, 'n'));
    left -= 1 + len;
  }
  w.u8(0);
  w.u16(1);
  w.u16(1);
  return w.take();
}

TEST(DnsNameLimit, TwoFiftyFiveOctetsDecodeAndTwoFiftySixThrow) {
  for (const std::size_t octets : {254u, 255u}) {
    const Bytes wire = query_with_name_octets(octets);
    const auto m = dns::Message::decode(wire);
    EXPECT_EQ(m.questions.at(0).qname.wire_length(), octets);
    EXPECT_EQ(m.encode(), wire);
    EXPECT_TRUE(expect_rejected_or_stable(wire));
  }
  EXPECT_THROW(dns::Message::decode(query_with_name_octets(256)),
               dns::WireError);

  // The limit holds across a pointer: one in-line label ahead of a
  // 200-octet name decodes at 255 octets and throws at 256.
  for (const std::size_t label : {54u, 55u}) {
    Bytes wire = query_with_name_octets(200);
    wire[5] = 2;  // QDCOUNT
    wire.push_back(static_cast<std::uint8_t>(label));
    wire.insert(wire.end(), label, 'p');
    wire.insert(wire.end(), {0xc0, 12, 0, 1, 0, 1});
    if (label == 54) {
      EXPECT_EQ(dns::Message::decode(wire).questions.at(1).qname.wire_length(),
                255u);
    } else {
      EXPECT_THROW(dns::Message::decode(wire), dns::WireError);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsFuzz,
                         ::testing::Values(1ULL, 42ULL, 2019ULL, 8484ULL));

// --- base64url round-trip over random data --------------------------------------

class Base64Property : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Base64Property, RoundTripsRandomPayloads) {
  stats::SplitMix64 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    Bytes data(GetParam() + rng.next_below(7));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    const auto encoded = dns::base64url_encode(data);
    // No padding, URL-safe alphabet only.
    for (char c : encoded) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                  c == '_')
          << c;
    }
    EXPECT_EQ(dns::base64url_decode(encoded), data);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, Base64Property,
                         ::testing::Values(0u, 1u, 2u, 3u, 17u, 64u, 255u));

// --- HPACK round-trip over random header lists -----------------------------------

class HpackProperty : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<http2::HeaderField> random_headers(stats::SplitMix64& rng) {
  static const char* kNames[] = {":path",      "accept",      "content-type",
                                 "user-agent", "x-custom",    "cookie",
                                 "etag",       "cache-control"};
  std::vector<http2::HeaderField> headers;
  const std::size_t n = 1 + rng.next_below(10);
  for (std::size_t i = 0; i < n; ++i) {
    http2::HeaderField f;
    f.name = kNames[rng.next_below(std::size(kNames))];
    const std::size_t len = rng.next_below(40);
    for (std::size_t j = 0; j < len; ++j) {
      f.value += static_cast<char>('!' + rng.next_below(94));
    }
    headers.push_back(std::move(f));
  }
  return headers;
}

TEST_P(HpackProperty, RandomBlocksRoundTripThroughSharedTables) {
  stats::SplitMix64 rng(GetParam());
  http2::HpackEncoder encoder;
  http2::HpackDecoder decoder;
  for (int round = 0; round < 300; ++round) {
    const auto headers = random_headers(rng);
    EXPECT_EQ(decoder.decode(encoder.encode(headers)), headers)
        << "round " << round;
  }
  // Tables stayed in lock-step.
  EXPECT_EQ(encoder.table().size(), decoder.table().size());
  EXPECT_EQ(encoder.table().entry_count(), decoder.table().entry_count());
}

TEST_P(HpackProperty, SmallTablesForceEvictionButStayCorrect) {
  stats::SplitMix64 rng(GetParam() ^ 0x77);
  http2::HpackEncoder encoder(128);  // tiny table: constant eviction
  http2::HpackDecoder decoder(128);
  for (int round = 0; round < 300; ++round) {
    const auto headers = random_headers(rng);
    EXPECT_EQ(decoder.decode(encoder.encode(headers)), headers);
    EXPECT_LE(decoder.table().size(), 128u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HpackProperty,
                         ::testing::Values(3ULL, 99ULL, 7541ULL));

// --- Huffman round-trip over random strings ---------------------------------------

class HuffmanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HuffmanProperty, RandomStringsRoundTrip) {
  stats::SplitMix64 rng(GetParam());
  for (int round = 0; round < 500; ++round) {
    std::string s;
    const std::size_t len = rng.next_below(200);
    for (std::size_t i = 0; i < len; ++i) {
      s += static_cast<char>(rng.next_below(256));
    }
    const auto encoded = http2::huffman_encode(s);
    EXPECT_EQ(http2::huffman_decode(encoded), s);
    EXPECT_EQ(http2::huffman_encoded_size(s), encoded.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanProperty,
                         ::testing::Values(5ULL, 1234ULL));

// --- HTTP/1.1 parser: any chunking of any message sequence ------------------------

class H1ChunkingProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(H1ChunkingProperty, ParserInvariantUnderChunkSize) {
  const std::size_t chunk = GetParam();
  // Three responses with varied body sizes back to back.
  Bytes wire;
  std::vector<std::size_t> body_sizes{0, 13, 1024};
  for (const auto size : body_sizes) {
    http1::Response r;
    r.status = 200;
    r.headers.add("Content-Type", "application/octet-stream");
    r.body.assign(size, 0x5a);
    const auto one = http1::serialize(r);
    wire.insert(wire.end(), one.begin(), one.end());
  }

  http1::Parser parser(http1::Parser::Mode::kResponse);
  std::vector<std::size_t> seen;
  for (std::size_t off = 0; off < wire.size(); off += chunk) {
    const std::size_t n = std::min(chunk, wire.size() - off);
    parser.feed(std::span(wire.data() + off, n));
    while (auto r = parser.next_response()) seen.push_back(r->body.size());
  }
  EXPECT_EQ(seen, body_sizes);
  EXPECT_FALSE(parser.error());
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, H1ChunkingProperty,
                         ::testing::Values(1u, 2u, 3u, 7u, 16u, 64u, 1000u,
                                           100000u));

// --- dns-json round-trip over the record space --------------------------------------

class JsonRoundTrip : public ::testing::TestWithParam<dns::RType> {};

TEST_P(JsonRoundTrip, AnswerSurvivesJson) {
  const auto type = GetParam();
  const auto owner = dns::Name::parse("record.example.com");
  dns::ResourceRecord rr;
  switch (type) {
    case dns::RType::kA:
      rr = dns::ResourceRecord::a(owner, "198.51.100.7");
      break;
    case dns::RType::kCNAME:
      rr = dns::ResourceRecord::cname(owner, dns::Name::parse("t.example"));
      break;
    case dns::RType::kTXT:
      rr = dns::ResourceRecord::txt(owner, "v=spf1 -all");
      break;
    case dns::RType::kNS:
      rr = {owner, dns::RType::kNS, dns::RClass::kIN, 300,
            dns::NsRdata{dns::Name::parse("ns.example")}};
      break;
    default:
      GTEST_SKIP();
  }
  const auto query = dns::Message::make_query(0, owner, type);
  const auto response = dns::Message::make_response(query, {rr});
  const auto parsed = dns::from_dns_json(dns::to_dns_json(response));
  ASSERT_EQ(parsed.answers.size(), 1u);
  EXPECT_EQ(parsed.answers[0].type, type);
  EXPECT_EQ(parsed.answers[0].name, owner);
}

INSTANTIATE_TEST_SUITE_P(Types, JsonRoundTrip,
                         ::testing::Values(dns::RType::kA, dns::RType::kCNAME,
                                           dns::RType::kTXT,
                                           dns::RType::kNS));

// --- name invariants -------------------------------------------------------------

class NameProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NameProperty, ParsePrintParseIsStable) {
  stats::SplitMix64 rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    std::string text;
    const std::size_t labels = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < labels; ++i) {
      if (i) text += '.';
      const std::size_t len = 1 + rng.next_below(12);
      for (std::size_t j = 0; j < len; ++j) {
        text += static_cast<char>('a' + rng.next_below(26));
      }
    }
    const auto name = dns::Name::parse(text);
    EXPECT_EQ(dns::Name::parse(name.to_string()), name);
    // Wire round trip preserves equality too.
    dns::ByteWriter w;
    dns::NameCompressor c;
    c.write(w, name);
    dns::ByteReader r(w.data());
    EXPECT_EQ(dns::read_name(r), name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameProperty, ::testing::Values(11ULL, 97ULL));

}  // namespace
}  // namespace dohperf
