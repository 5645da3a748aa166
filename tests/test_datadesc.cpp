/// Tests for cross-architecture data description & the five wire codecs.
/// The core guarantee: any described value round-trips bit-exactly through
/// any codec between any pair of architectures (when representable on the
/// receiver).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "datadesc/codec.hpp"
#include "datadesc/pastry.hpp"
#include "datadesc/wire.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"

namespace {

using namespace sg::datadesc;

// -- architecture table -----------------------------------------------------------

TEST(Arch, TableSanity) {
  EXPECT_GE(arch_table().size(), 6u);
  EXPECT_EQ(arch_by_name("x86").big_endian, false);
  EXPECT_EQ(arch_by_name("sparc").big_endian, true);
  EXPECT_EQ(arch_by_name("ppc").big_endian, true);
  EXPECT_EQ(arch_by_name("x86").size_of(CType::kLong), 4);
  EXPECT_EQ(arch_by_name("amd64").size_of(CType::kLong), 8);
  // classic ia32 ABI: 8-byte scalars aligned on 4
  EXPECT_EQ(arch_by_name("x86").align_of(CType::kDouble), 4);
  EXPECT_EQ(arch_by_name("sparc").align_of(CType::kDouble), 8);
  EXPECT_THROW(arch_by_name("vax"), sg::xbt::InvalidArgument);
  EXPECT_THROW(arch_by_id(99), sg::xbt::InvalidArgument);
}

TEST(Arch, StableIds) {
  // Wire compatibility depends on these ids never changing.
  EXPECT_EQ(arch_by_name("x86").id, 0);
  EXPECT_EQ(arch_by_name("sparc").id, 1);
  EXPECT_EQ(arch_by_name("ppc").id, 2);
  EXPECT_EQ(arch_by_name("amd64").id, 3);
}

// -- value model ------------------------------------------------------------------

TEST(Value, AccessorsAndEquality) {
  Value v(int64_t{-5});
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), -5);
  EXPECT_THROW(v.as_string(), sg::xbt::InvalidArgument);

  Value s(ValueStruct{{"a", Value(1)}, {"b", Value("x")}});
  EXPECT_EQ(s.field("b").as_string(), "x");
  EXPECT_THROW(s.field("zz"), sg::xbt::InvalidArgument);
  EXPECT_EQ(s, Value(ValueStruct{{"a", Value(1)}, {"b", Value("x")}}));
  EXPECT_TRUE(Value::null().is_null());
}

TEST(Value, ToStringRendering) {
  Value v(ValueStruct{{"n", Value(3)}, {"l", Value(ValueList{Value(1.5), Value("s")})}});
  EXPECT_EQ(v.to_string(), "{n: 3, l: [1.5, \"s\"]}");
}

// -- datadesc validation ------------------------------------------------------------

TEST(DataDesc, CheckAcceptsMatching) {
  auto desc = DataDesc::struct_("pair", {{"x", datadesc_by_name("int")},
                                         {"y", datadesc_by_name("double")}});
  EXPECT_NO_THROW(desc->check(Value(ValueStruct{{"x", Value(1)}, {"y", Value(2.0)}})));
}

TEST(DataDesc, CheckRejectsMismatch) {
  auto desc = DataDesc::struct_("pair", {{"x", datadesc_by_name("int")}});
  EXPECT_THROW(desc->check(Value(1)), sg::xbt::InvalidArgument);
  EXPECT_THROW(desc->check(Value(ValueStruct{{"y", Value(1)}})), sg::xbt::InvalidArgument);
  EXPECT_THROW(desc->check(Value(ValueStruct{{"x", Value("nope")}})), sg::xbt::InvalidArgument);
  auto arr = DataDesc::fixed_array(datadesc_by_name("int"), 3);
  EXPECT_THROW(arr->check(Value(ValueList{Value(1)})), sg::xbt::InvalidArgument);
}

TEST(DataDesc, Registry) {
  EXPECT_NO_THROW(datadesc_by_name("uint16"));
  EXPECT_THROW(datadesc_by_name("no-such-type"), sg::xbt::InvalidArgument);
  datadesc_register("my_pair", DataDesc::struct_("my_pair", {{"a", datadesc_by_name("int")}}));
  EXPECT_NO_THROW(datadesc_by_name("my_pair"));
}

// -- round-trip matrix --------------------------------------------------------------

/// A description exercising every DataDesc kind and tricky scalar layouts.
DataDescPtr kitchen_sink_desc() {
  static const DataDescPtr desc = DataDesc::struct_(
      "sink",
      {
          {"i8", DataDesc::scalar(CType::kInt8, "i8")},
          {"u8", DataDesc::scalar(CType::kUInt8, "u8")},
          {"i16", DataDesc::scalar(CType::kInt16, "i16")},
          {"i32", DataDesc::scalar(CType::kInt32, "i32")},
          {"u32", DataDesc::scalar(CType::kUInt32, "u32")},
          {"i64", DataDesc::scalar(CType::kInt64, "i64")},
          {"lng", DataDesc::scalar(CType::kLong, "lng")},
          {"f32", DataDesc::scalar(CType::kFloat, "f32")},
          {"f64", DataDesc::scalar(CType::kDouble, "f64")},
          {"str", DataDesc::string("str")},
          {"arr", DataDesc::fixed_array(DataDesc::scalar(CType::kInt16, "e"), 3, "arr")},
          {"dyn", DataDesc::dyn_array(DataDesc::scalar(CType::kInt32, "d"), "dyn")},
          {"ref", DataDesc::ref(DataDesc::scalar(CType::kInt32, "p"), "ref")},
          {"nested", DataDesc::struct_("inner", {{"a", DataDesc::scalar(CType::kUInt16, "a")},
                                                 {"b", DataDesc::string("b")}})},
      });
  return desc;
}

Value kitchen_sink_value(bool null_ref) {
  return Value(ValueStruct{
      {"i8", Value(int64_t{-100})},
      {"u8", Value(uint64_t{200})},
      {"i16", Value(int64_t{-30000})},
      {"i32", Value(int64_t{-2000000000})},
      {"u32", Value(uint64_t{4000000000u})},
      {"i64", Value(int64_t{-9000000000000000000LL})},
      {"lng", Value(int64_t{-2000000000})},  // fits a 32-bit long
      {"f32", Value(0.5)},                   // exactly representable in binary32
      {"f64", Value(3.141592653589793)},
      {"str", Value(std::string("héllo <&> \"world\""))},
      {"arr", Value(ValueList{Value(1), Value(-2), Value(3)})},
      {"dyn", Value(ValueList{Value(10), Value(20), Value(30), Value(40)})},
      {"ref", null_ref ? Value::null() : Value(int64_t{77})},
      {"nested", Value(ValueStruct{{"a", Value(uint64_t{65535})}, {"b", Value("inner")}})},
  });
}

struct RoundTripCase {
  const char* codec;
  const char* sender;
  const char* receiver;
};

void PrintTo(const RoundTripCase& c, std::ostream* os) {
  *os << c.codec << ":" << c.sender << "->" << c.receiver;
}

class CodecRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CodecRoundTrip, KitchenSink) {
  const auto p = GetParam();
  const Codec& codec = codec_by_name(p.codec);
  const ArchDesc& snd = arch_by_name(p.sender);
  const ArchDesc& rcv = arch_by_name(p.receiver);
  for (bool null_ref : {false, true}) {
    const Value original = kitchen_sink_value(null_ref);
    const auto wire = codec.encode(*kitchen_sink_desc(), original, snd);
    const Value decoded = codec.decode(*kitchen_sink_desc(), wire, rcv);
    EXPECT_EQ(decoded, original) << "wire size " << wire.size() << "\n got: " << decoded.to_string()
                                 << "\nwant: " << original.to_string();
  }
}

TEST_P(CodecRoundTrip, PastryMessage) {
  const auto p = GetParam();
  const Codec& codec = codec_by_name(p.codec);
  sg::xbt::Rng rng(2006);
  const Value msg = make_pastry_message(rng, 512);
  pastry_message_desc()->check(msg);
  const auto wire = codec.encode(*pastry_message_desc(), msg, arch_by_name(p.sender));
  const Value decoded = codec.decode(*pastry_message_desc(), wire, arch_by_name(p.receiver));
  EXPECT_EQ(decoded, msg);
}

std::vector<RoundTripCase> all_cases() {
  std::vector<RoundTripCase> cases;
  for (const char* codec : {"gras", "mpich", "omniorb", "pbio", "xml"})
    for (const char* snd : {"x86", "sparc", "ppc", "amd64"})
      for (const char* rcv : {"x86", "sparc", "ppc", "amd64"})
        cases.push_back({codec, snd, rcv});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllArchPairs, CodecRoundTrip, ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<RoundTripCase>& info) {
                           return std::string(info.param.codec) + "_" + info.param.sender + "_to_" +
                                  info.param.receiver;
                         });

// -- codec specifics -----------------------------------------------------------------

TEST(Ndr, SameArchIsSmallerThanXdrForNarrowTypes) {
  // NDR keeps an int16 at 2 bytes; XDR inflates it to 4.
  auto desc = DataDesc::fixed_array(DataDesc::scalar(CType::kInt16, "v"), 64);
  ValueList vals;
  for (int i = 0; i < 64; ++i)
    vals.emplace_back(i);
  const Value v{ValueList(vals)};
  const auto ndr = ndr_codec().encode(*desc, v, arch_by_name("x86"));
  const auto xdr = xdr_codec().encode(*desc, v, arch_by_name("x86"));
  EXPECT_LT(ndr.size(), xdr.size());
}

TEST(Ndr, CarriesSenderArchId) {
  auto desc = datadesc_by_name("int");
  const auto wire = ndr_codec().encode(*desc, Value(1), arch_by_name("sparc"));
  EXPECT_EQ(wire[0], arch_by_name("sparc").id);
}

TEST(Ndr, LongWidthFollowsSenderArch) {
  auto desc = datadesc_by_name("long");
  const auto wire32 = ndr_codec().encode(*desc, Value(1), arch_by_name("x86"));
  const auto wire64 = ndr_codec().encode(*desc, Value(1), arch_by_name("amd64"));
  EXPECT_EQ(wire32.size(), 1u + 4u + 3u);  // arch byte + aligned(4) int32... padding
  EXPECT_GT(wire64.size(), wire32.size());
}

TEST(Ndr, ReceiverCannotRepresentWideLong) {
  // A 64-bit long from amd64 that exceeds 32 bits must be rejected by an
  // ILP32 receiver (receiver-makes-right failure mode).
  auto desc = datadesc_by_name("long");
  const Value big(int64_t{1} << 40);
  const auto wire = ndr_codec().encode(*desc, big, arch_by_name("amd64"));
  EXPECT_NO_THROW(ndr_codec().decode(*desc, wire, arch_by_name("amd64")));
  EXPECT_THROW(ndr_codec().decode(*desc, wire, arch_by_name("x86")), sg::xbt::InvalidArgument);
}

TEST(Ndr, ValueTooWideForSenderRejected) {
  auto desc = datadesc_by_name("long");
  EXPECT_THROW(ndr_codec().encode(*desc, Value(int64_t{1} << 40), arch_by_name("x86")),
               sg::xbt::InvalidArgument);
}

TEST(Xdr, CanonicalFormIsArchIndependent) {
  auto desc = pastry_message_desc();
  sg::xbt::Rng rng(7);
  const Value msg = make_pastry_message(rng, 64);
  const auto a = xdr_codec().encode(*desc, msg, arch_by_name("x86"));
  const auto b = xdr_codec().encode(*desc, msg, arch_by_name("sparc"));
  EXPECT_EQ(a, b);  // sender layout does not leak into XDR
}

TEST(Cdr, EndianFlagHonored) {
  auto desc = datadesc_by_name("int");
  const auto le = cdr_codec().encode(*desc, Value(0x01020304), arch_by_name("x86"));
  const auto be = cdr_codec().encode(*desc, Value(0x01020304), arch_by_name("sparc"));
  EXPECT_NE(le, be);
  EXPECT_EQ(cdr_codec().decode(*desc, le, arch_by_name("sparc")).as_int(), 0x01020304);
  EXPECT_EQ(cdr_codec().decode(*desc, be, arch_by_name("x86")).as_int(), 0x01020304);
}

TEST(Pbio, DetectsFormatMismatch) {
  auto desc_a = DataDesc::struct_("m", {{"x", datadesc_by_name("int")}});
  auto desc_b = DataDesc::struct_("m", {{"y", datadesc_by_name("int")}});
  const auto wire = pbio_codec().encode(*desc_a, Value(ValueStruct{{"x", Value(1)}}),
                                        arch_by_name("x86"));
  EXPECT_THROW(pbio_codec().decode(*desc_b, wire, arch_by_name("x86")), sg::xbt::InvalidArgument);
}

TEST(Xml, EscapesMarkup) {
  auto desc = datadesc_by_name("string");
  const Value v(std::string("a<b>&c\"d"));
  const auto wire = xml_codec().encode(*desc, v, arch_by_name("x86"));
  const std::string text(wire.begin(), wire.end());
  EXPECT_EQ(text.find("a<b>"), std::string::npos);  // must be escaped
  EXPECT_EQ(xml_codec().decode(*desc, wire, arch_by_name("sparc")).as_string(), "a<b>&c\"d");
}

TEST(Xml, IsLargestEncoding) {
  auto desc = pastry_message_desc();
  sg::xbt::Rng rng(11);
  const Value msg = make_pastry_message(rng, 128);
  const auto& x86 = arch_by_name("x86");
  const size_t ndr = ndr_codec().encode(*desc, msg, x86).size();
  const size_t xml = xml_codec().encode(*desc, msg, x86).size();
  EXPECT_GT(xml, 2 * ndr);
}

TEST(Codecs, TruncatedBuffersRejected) {
  auto desc = pastry_message_desc();
  sg::xbt::Rng rng(3);
  const Value msg = make_pastry_message(rng, 64);
  for (const Codec* codec : all_codecs()) {
    auto wire = codec->encode(*desc, msg, arch_by_name("x86"));
    wire.resize(wire.size() / 2);
    EXPECT_THROW(codec->decode(*desc, wire, arch_by_name("x86")), sg::xbt::InvalidArgument)
        << codec->name();
  }
}

/// Overwrite the 32-bit count that directly precedes `marker` in `wire` with
/// 0xFFFFFFFF: a 4 Gi element claim in a buffer of a few dozen bytes.
void corrupt_count_before(std::vector<std::uint8_t>& wire, std::vector<std::uint8_t> marker) {
  auto it = std::search(wire.begin(), wire.end(), marker.begin(), marker.end());
  if (it == wire.end()) {  // the other byte order
    std::reverse(marker.begin(), marker.end());
    it = std::search(wire.begin(), wire.end(), marker.begin(), marker.end());
  }
  ASSERT_NE(it, wire.end());
  ASSERT_GE(it - wire.begin(), 4);
  std::fill(it - 4, it, std::uint8_t{0xFF});
}

void expect_count_rejected(const Codec& codec, const DataDesc& desc,
                           const std::vector<std::uint8_t>& wire) {
  try {
    codec.decode(desc, wire, arch_by_name("x86"));
    ADD_FAILURE() << codec.name() << ": corrupted count accepted";
  } catch (const sg::xbt::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
        << codec.name() << ": not rejected by the count check: " << e.what();
  }
}

/// A peer-supplied string or array count larger than the bytes left must be
/// refused before anything is allocated from it.
void expect_corrupted_counts_rejected(const Codec& codec) {
  const auto& arch = arch_by_name("x86");
  auto sdesc = DataDesc::string("s");
  auto wire = codec.encode(*sdesc, Value(std::string("MARKER")), arch);
  corrupt_count_before(wire, {'M', 'A', 'R', 'K'});
  expect_count_rejected(codec, *sdesc, wire);

  auto adesc = DataDesc::dyn_array(datadesc_by_name("int"), "d");
  wire = codec.encode(*adesc, Value(ValueList{Value(0x5A5B5C5D), Value(1)}), arch);
  corrupt_count_before(wire, {0x5D, 0x5C, 0x5B, 0x5A});
  expect_count_rejected(codec, *adesc, wire);
}

TEST(Ndr, CorruptedCountsRejected) { expect_corrupted_counts_rejected(ndr_codec()); }
TEST(Xdr, CorruptedCountsRejected) { expect_corrupted_counts_rejected(xdr_codec()); }
TEST(Cdr, CorruptedCountsRejected) { expect_corrupted_counts_rejected(cdr_codec()); }
TEST(Pbio, CorruptedCountsRejected) { expect_corrupted_counts_rejected(pbio_codec()); }

TEST(Codecs, SpecialFloats) {
  auto desc = datadesc_by_name("double");
  for (const Codec* codec : all_codecs()) {
    for (double v : {0.0, -0.0, 1e-300, -1e300, std::numeric_limits<double>::infinity()}) {
      const auto wire = codec->encode(*desc, Value(v), arch_by_name("ppc"));
      const Value out = codec->decode(*desc, wire, arch_by_name("x86"));
      EXPECT_EQ(out.as_float(), v) << codec->name();
    }
    // NaN compares unequal to itself; check bit-level survival separately.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto wire = codec->encode(*desc, Value(nan), arch_by_name("ppc"));
    EXPECT_TRUE(std::isnan(codec->decode(*desc, wire, arch_by_name("x86")).as_float()))
        << codec->name();
  }
}

TEST(Codecs, EmptyStringAndEmptyDynArray) {
  auto desc = DataDesc::struct_("m", {{"s", DataDesc::string("s")},
                                      {"d", DataDesc::dyn_array(datadesc_by_name("int"), "d")}});
  const Value v(ValueStruct{{"s", Value(std::string())}, {"d", Value(ValueList{})}});
  for (const Codec* codec : all_codecs()) {
    const auto wire = codec->encode(*desc, v, arch_by_name("sparc"));
    EXPECT_EQ(codec->decode(*desc, wire, arch_by_name("x86")), v) << codec->name();
  }
}

TEST(Pastry, GeneratedMessagesMatchDesc) {
  sg::xbt::Rng rng(1);
  for (int i = 0; i < 20; ++i)
    EXPECT_NO_THROW(pastry_message_desc()->check(make_pastry_message(rng, 100)));
}

}  // namespace
