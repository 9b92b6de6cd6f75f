#include <gtest/gtest.h>

#include <algorithm>

#include "dns/base64url.hpp"
#include "dns/json.hpp"
#include "dns/json_value.hpp"
#include "dns/message.hpp"

namespace dohperf::dns {
namespace {

TEST(Name, ParseAndPrint) {
  const auto n = Name::parse("www.Example.COM");
  EXPECT_EQ(n.label_count(), 3u);
  EXPECT_EQ(n.to_string(), "www.Example.COM");
}

TEST(Name, TrailingDotAccepted) {
  EXPECT_EQ(Name::parse("example.com."), Name::parse("example.com"));
}

TEST(Name, RootName) {
  const auto root = Name::parse(".");
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.to_string(), ".");
  EXPECT_EQ(root.wire_length(), 1u);
}

TEST(Name, CaseInsensitiveEquality) {
  EXPECT_EQ(Name::parse("EXAMPLE.com"), Name::parse("example.COM"));
  EXPECT_NE(Name::parse("a.example.com"), Name::parse("b.example.com"));
}

TEST(Name, InvalidNamesRejected) {
  EXPECT_THROW(Name::parse(""), WireError);
  EXPECT_THROW(Name::parse("a..b"), WireError);
  EXPECT_THROW(Name::parse(std::string(64, 'x') + ".com"), WireError);
  // > 255 octets total
  std::string long_name;
  for (int i = 0; i < 50; ++i) long_name += "abcdef.";
  long_name += "com";
  EXPECT_THROW(Name::parse(long_name), WireError);
}

TEST(Name, ParentAndChild) {
  const auto n = Name::parse("www.example.com");
  EXPECT_EQ(n.parent(), Name::parse("example.com"));
  EXPECT_EQ(Name::parse("example.com").child("www"), n);
  EXPECT_TRUE(Name::root().parent().is_root());
}

TEST(Name, SubdomainChecks) {
  const auto child = Name::parse("a.b.example.com");
  EXPECT_TRUE(child.is_subdomain_of(Name::parse("example.com")));
  EXPECT_TRUE(child.is_subdomain_of(child));
  EXPECT_FALSE(Name::parse("example.com").is_subdomain_of(child));
  EXPECT_FALSE(child.is_subdomain_of(Name::parse("example.org")));
}

TEST(Name, WireRoundTripNoCompression) {
  ByteWriter w;
  NameCompressor c(/*enabled=*/false);
  const auto n = Name::parse("mail.example.org");
  c.write(w, n);
  ByteReader r(w.data());
  EXPECT_EQ(read_name(r), n);
  EXPECT_EQ(r.offset(), n.wire_length());
}

TEST(Name, CompressionPointersShrinkRepeats) {
  ByteWriter w;
  NameCompressor c;
  const auto a = Name::parse("www.example.com");
  const auto b = Name::parse("mail.example.com");
  c.write(w, a);
  const std::size_t after_first = w.size();
  c.write(w, b);  // should reuse "example.com" via a pointer
  const std::size_t second_len = w.size() - after_first;
  EXPECT_LT(second_len, b.wire_length());
  EXPECT_EQ(second_len, 1 + 4 + 2u);  // "mail" label + pointer

  ByteReader r(w.data());
  EXPECT_EQ(read_name(r), a);
  EXPECT_EQ(read_name(r), b);
}

TEST(Name, LabelsByIndex) {
  const auto n = Name::parse("www.Example.COM");
  EXPECT_EQ(n.label(0), "www");
  EXPECT_EQ(n.label(1), "Example");
  EXPECT_EQ(n.label(2), "COM");
  EXPECT_EQ(Name::root().label_count(), 0u);
}

TEST(Name, OrderIsLabelByLabelCaseFoldedShorterFirst) {
  // Label by label from the left, folded bytes compared unsigned, a label
  // that is a prefix of the other sorts first, then fewer labels first.
  EXPECT_LT(Name::parse("a.com"), Name::parse("B.com"));
  EXPECT_LT(Name::parse("A.com"), Name::parse("ab.com"));
  EXPECT_LT(Name::parse("a.com"), Name::parse("com"));
  EXPECT_LT(Name::parse("example.com"), Name::parse("example.com.x"));
  EXPECT_LT(Name::root(), Name::parse("a"));
  EXPECT_LT(Name::parse("z"), Name::parse("com").child("\xff"));
  EXPECT_FALSE(Name::parse("EXAMPLE.com") < Name::parse("example.COM"));
  EXPECT_FALSE(Name::parse("example.COM") < Name::parse("EXAMPLE.com"));
}

TEST(Name, DottedLabelIsNotConfusedWithLabelBoundaries) {
  // The label list ["a.b", "c"] and the name a.b.c print alike but are
  // different names: the answer owner must not be compressed into a
  // pointer to the question.
  const Name dotted = Name::parse("c").child("a.b");
  ASSERT_EQ(dotted.label_count(), 2u);
  EXPECT_NE(dotted, Name::parse("a.b.c"));
  Message m = Message::make_query(1, Name::parse("a.b.c"));
  m.flags.qr = true;
  m.answers.push_back(ResourceRecord::a(dotted, "192.0.2.1"));
  const Message decoded = Message::decode(m.encode());
  ASSERT_EQ(decoded.answers.size(), 1u);
  EXPECT_EQ(decoded.answers[0].name.label_count(), 2u);
  EXPECT_EQ(decoded, m);
}

TEST(Name, CompressionLoopDetected) {
  // A pointer that points at itself.
  Bytes evil{0xc0, 0x00};
  ByteReader r(evil);
  EXPECT_THROW(read_name(r), WireError);
}

TEST(ARdata, ParseAndFormat) {
  const auto a = ARdata::parse("192.0.2.1");
  EXPECT_EQ(a.to_string(), "192.0.2.1");
  EXPECT_THROW(ARdata::parse("256.1.1.1"), WireError);
  EXPECT_THROW(ARdata::parse("1.2.3"), WireError);
  EXPECT_THROW(ARdata::parse("a.b.c.d"), WireError);
}

TEST(Message, QueryRoundTrip) {
  const auto query =
      Message::make_query(0x1234, Name::parse("example.com"), RType::kA);
  const auto wire = query.encode();
  const auto decoded = Message::decode(wire);
  EXPECT_EQ(decoded.id, 0x1234);
  EXPECT_FALSE(decoded.flags.qr);
  EXPECT_TRUE(decoded.flags.rd);
  ASSERT_EQ(decoded.questions.size(), 1u);
  EXPECT_EQ(decoded.questions[0].qname, Name::parse("example.com"));
  EXPECT_EQ(decoded.questions[0].qtype, RType::kA);
  ASSERT_NE(decoded.edns(), nullptr);
  EXPECT_EQ(decoded, query);
}

TEST(Message, ResponseRoundTrip) {
  const auto query =
      Message::make_query(7, Name::parse("www.example.com"), RType::kA);
  auto response = Message::make_response(
      query, {ResourceRecord::a(Name::parse("www.example.com"), "203.0.113.9",
                                600)});
  const auto decoded = Message::decode(response.encode());
  EXPECT_TRUE(decoded.flags.qr);
  EXPECT_EQ(decoded.flags.rcode, Rcode::kNoError);
  ASSERT_EQ(decoded.answers.size(), 1u);
  const auto& rr = decoded.answers[0];
  EXPECT_EQ(rr.ttl, 600u);
  EXPECT_EQ(std::get<ARdata>(rr.rdata).to_string(), "203.0.113.9");
}

TEST(Message, ErrorResponse) {
  const auto query = Message::make_query(9, Name::parse("nx.example"));
  const auto err = Message::make_error(query, Rcode::kNxDomain);
  const auto decoded = Message::decode(err.encode());
  EXPECT_EQ(decoded.flags.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(decoded.answers.empty());
}

TEST(Message, AllRecordTypesRoundTrip) {
  const auto owner = Name::parse("example.com");
  Message m;
  m.id = 1;
  m.flags.qr = true;
  m.answers = {
      ResourceRecord::a(owner, "192.0.2.1"),
      ResourceRecord::cname(Name::parse("alias.example.com"), owner),
      ResourceRecord::txt(owner, "hello world"),
      ResourceRecord::caa(owner, 0, "issue", "ca.example.net"),
      {owner, RType::kNS, RClass::kIN, 300, NsRdata{Name::parse("ns1.example.com")}},
      {owner, RType::kMX, RClass::kIN, 300, MxRdata{10, Name::parse("mx.example.com")}},
      {owner, RType::kPTR, RClass::kIN, 300, PtrRdata{Name::parse("host.example.com")}},
      {owner, RType::kSOA, RClass::kIN, 300,
       SoaRdata{Name::parse("ns1.example.com"), Name::parse("admin.example.com"),
                2024010101, 3600, 600, 86400, 300}},
  };
  AaaaRdata aaaa;
  aaaa.addr = {0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  m.answers.push_back({owner, RType::kAAAA, RClass::kIN, 300, aaaa});

  const auto decoded = Message::decode(m.encode());
  EXPECT_EQ(decoded, m);
}

TEST(Message, CompressionShrinksRepeatedNames) {
  const auto owner = Name::parse("subdomain.example.com");
  Message m;
  m.answers.assign(5, ResourceRecord::a(owner, "192.0.2.1"));
  const auto compressed = m.encode(true);
  const auto uncompressed = m.encode(false);
  EXPECT_LT(compressed.size(), uncompressed.size());
  EXPECT_EQ(Message::decode(compressed), Message::decode(uncompressed));
}

TEST(Message, TruncatedInputThrows) {
  const auto wire =
      Message::make_query(1, Name::parse("example.com")).encode();
  for (std::size_t cut = 1; cut < wire.size(); cut += 7) {
    Bytes partial(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_THROW(Message::decode(partial), WireError) << "cut=" << cut;
  }
}

TEST(Message, EdnsPaddingBlocksSize) {
  auto query = Message::make_query(5, Name::parse("a.example.com"));
  query.pad_to_multiple(128);
  const auto wire = query.encode();
  EXPECT_EQ(wire.size() % 128, 0u);
  // Idempotent: re-padding keeps one padding option.
  query.pad_to_multiple(128);
  EXPECT_EQ(query.encode().size(), wire.size());
  // Round-trips.
  EXPECT_EQ(Message::decode(wire), query);
}

TEST(Message, PaddingWithoutEdnsThrows) {
  auto query = Message::make_query(5, Name::parse("a.example.com"),
                                   RType::kA, /*edns=*/false);
  EXPECT_THROW(query.pad_to_multiple(128), WireError);
}

TEST(Flags, EncodeDecodeAllBits) {
  Flags f;
  f.qr = true;
  f.aa = true;
  f.tc = true;
  f.rd = false;
  f.ra = true;
  f.ad = true;
  f.cd = true;
  f.rcode = Rcode::kRefused;
  EXPECT_EQ(Flags::decode(f.encode()), f);
}

TEST(JsonValue, ParsePrimitives) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(JsonValue::parse("2.5").as_double(), 2.5);
  EXPECT_EQ(JsonValue::parse("\"a\\nb\"").as_string(), "a\nb");
}

TEST(JsonValue, ParseNested) {
  const auto v = JsonValue::parse(R"({"a":[1,2,{"b":"c"}],"d":{}})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].at("b").as_string(), "c");
  EXPECT_TRUE(v.at("d").as_object().empty());
}

TEST(JsonValue, RejectsGarbage) {
  EXPECT_THROW(JsonValue::parse(""), JsonError);
  EXPECT_THROW(JsonValue::parse("{"), JsonError);
  EXPECT_THROW(JsonValue::parse("tru"), JsonError);
  EXPECT_THROW(JsonValue::parse("{}x"), JsonError);
  EXPECT_THROW(JsonValue::parse("[1,]"), JsonError);
}

TEST(JsonValue, DumpParseRoundTrip) {
  const auto v = JsonValue::parse(
      R"({"Status":0,"Answer":[{"name":"x.","data":"1.2.3.4"}],"TC":false})");
  EXPECT_EQ(JsonValue::parse(v.dump()), v);
}

TEST(DnsJson, ResponseRoundTrip) {
  const auto query =
      Message::make_query(0, Name::parse("example.com"), RType::kA);
  auto response = Message::make_response(
      query, {ResourceRecord::a(Name::parse("example.com"), "93.184.216.34")});
  const std::string json = to_dns_json(response);
  EXPECT_NE(json.find("\"Status\":0"), std::string::npos);
  EXPECT_NE(json.find("93.184.216.34"), std::string::npos);

  const auto parsed = from_dns_json(json);
  EXPECT_EQ(parsed.flags.rcode, Rcode::kNoError);
  ASSERT_EQ(parsed.answers.size(), 1u);
  EXPECT_EQ(std::get<ARdata>(parsed.answers[0].rdata).to_string(),
            "93.184.216.34");
  EXPECT_EQ(parsed.questions.at(0).qname, Name::parse("example.com"));
}

TEST(DnsJson, QueryString) {
  EXPECT_EQ(dns_json_query_string(Name::parse("example.com"), RType::kAAAA),
            "name=example.com&type=AAAA");
}

TEST(Base64Url, KnownVectors) {
  EXPECT_EQ(base64url_encode(to_bytes("")), "");
  EXPECT_EQ(base64url_encode(to_bytes("f")), "Zg");
  EXPECT_EQ(base64url_encode(to_bytes("fo")), "Zm8");
  EXPECT_EQ(base64url_encode(to_bytes("foo")), "Zm9v");
  EXPECT_EQ(base64url_encode(to_bytes("foob")), "Zm9vYg");
}

TEST(Base64Url, RoundTripAllBytes) {
  Bytes data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(base64url_decode(base64url_encode(data)), data);
}

TEST(Base64Url, UrlSafeAlphabet) {
  Bytes data{0xfb, 0xff, 0xbf};  // would produce +/ in standard base64
  const auto encoded = base64url_encode(data);
  EXPECT_EQ(encoded.find('+'), std::string::npos);
  EXPECT_EQ(encoded.find('/'), std::string::npos);
  EXPECT_EQ(base64url_decode(encoded), data);
}

TEST(Base64Url, RejectsInvalid) {
  EXPECT_THROW(base64url_decode("a"), WireError);     // impossible length
  EXPECT_THROW(base64url_decode("ab=="), WireError);  // padding not allowed
  EXPECT_THROW(base64url_decode("a+b/"), WireError);  // wrong alphabet
}

TEST(Wire, ReaderBounds) {
  Bytes data{1, 2, 3};
  ByteReader r(data);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(r.u16(), 0x0203);
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.u8(), WireError);
}

TEST(Wire, WriterPatch) {
  ByteWriter w;
  w.u16(0);
  w.u32(0xdeadbeef);
  w.patch_u16(0, 0x1234);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeef);
  EXPECT_THROW(w.patch_u16(5, 1), WireError);
}

TEST(Wire, WriterZerosAppendsZeroOctets) {
  ByteWriter w;
  w.u8(0xff);
  w.zeros(0);
  EXPECT_EQ(w.size(), 1u);
  w.zeros(1000);
  w.u8(0xee);
  ASSERT_EQ(w.size(), 1002u);
  EXPECT_EQ(w.data().front(), 0xff);
  EXPECT_EQ(w.data().back(), 0xee);
  EXPECT_TRUE(std::all_of(w.data().begin() + 1, w.data().end() - 1,
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(Wire, WriterFirstWriteReservesOnce) {
  // A record-header-sized writer must not regrow 1, 2, 4, 8: its first
  // write takes the whole first reserve.
  ByteWriter w;
  w.u8(22);
  EXPECT_EQ(w.data().capacity(), ByteWriter::kFirstReserve);
  const std::uint8_t* first = w.data().data();
  w.u16(0x0303);
  w.u16(0x0010);
  for (std::size_t i = w.size(); i < ByteWriter::kFirstReserve; ++i) w.u8(0);
  EXPECT_EQ(w.data().data(), first);
  // Past it, growth doubles; an explicit reserve is honoured exactly.
  w.u8(1);
  EXPECT_EQ(w.data().capacity(), 2 * ByteWriter::kFirstReserve);
  ByteWriter sized;
  sized.reserve(5);
  sized.u8(1);
  EXPECT_EQ(sized.data().capacity(), 5u);
}

TEST(Wire, WriterPatchU24) {
  ByteWriter w;
  w.u8(1);
  w.zeros(3);
  w.patch_u24(1, 0x0a0b0c);
  EXPECT_EQ(w.data(), (Bytes{1, 0x0a, 0x0b, 0x0c}));
  EXPECT_THROW(w.patch_u24(2, 1), WireError);
}

}  // namespace
}  // namespace dohperf::dns
