/// CDR codec ("omniorb" in the paper's tables): CORBA Common Data
/// Representation. Fixed IDL widths (long = 4 bytes regardless of the C
/// long), natural alignment, sender endianness announced by a flag byte;
/// the receiver byte-swaps when the flag differs from its own order.
#include "datadesc/codec.hpp"
#include "datadesc/wire.hpp"

namespace sg::datadesc {
namespace {

/// CDR width for a scalar (IDL fixed sizes).
int cdr_size(CType t) {
  switch (t) {
    case CType::kInt8:
    case CType::kUInt8:
      return 1;
    case CType::kInt16:
    case CType::kUInt16:
      return 2;
    case CType::kInt32:
    case CType::kUInt32:
    case CType::kLong:   // IDL long is 32-bit
    case CType::kULong:
    case CType::kFloat:
      return 4;
    default:
      return 8;
  }
}

class CdrCodec final : public Codec {
public:
  const char* name() const override { return "omniorb"; }

  std::vector<std::uint8_t> encode(const DataDesc& desc, const Value& v,
                                   const ArchDesc& sender) const override {
    WireWriter w;
    w.put_u8(sender.big_endian ? 0 : 1);  // CDR: 1 = little-endian
    encode_node(w, desc, v, sender.big_endian);
    return w.take();
  }

  Value decode(const DataDesc& desc, const std::vector<std::uint8_t>& buf,
               const ArchDesc& receiver) const override {
    WireReader r(buf);
    const bool big_endian = r.get_u8() == 0;
    return decode_node(r, desc, big_endian, receiver);
  }

private:
  static void encode_node(WireWriter& w, const DataDesc& d, const Value& v, bool be) {
    switch (d.kind()) {
      case DataDesc::Kind::kScalar: {
        const CType t = d.ctype();
        const int size = cdr_size(t);
        w.align(static_cast<size_t>(size));
        if (ctype_is_float(t)) {
          w.put_bits(float_to_bits(v.as_float(), size == 4), size, be);
        } else if (ctype_is_signed(t)) {
          check_int_fits(v.as_int(), size, d.name());
          w.put_bits(static_cast<std::uint64_t>(v.as_int()), size, be);
        } else {
          check_uint_fits(v.as_uint(), size, d.name());
          w.put_bits(v.as_uint(), size, be);
        }
        break;
      }
      case DataDesc::Kind::kString: {
        // CDR string: u32 length including terminating NUL, then bytes + NUL.
        const std::string& s = v.as_string();
        w.align(4);
        w.put_bits(s.size() + 1, 4, be);
        w.put_bytes(s.data(), s.size());
        w.put_u8(0);
        break;
      }
      case DataDesc::Kind::kStruct:
        for (size_t i = 0; i < d.fields().size(); ++i)
          encode_node(w, *d.fields()[i].desc, v.as_struct()[i].second, be);
        break;
      case DataDesc::Kind::kFixedArray:
        for (const Value& e : v.as_list())
          encode_node(w, *d.element(), e, be);
        break;
      case DataDesc::Kind::kDynArray:  // IDL sequence
        w.align(4);
        w.put_bits(v.as_list().size(), 4, be);
        for (const Value& e : v.as_list())
          encode_node(w, *d.element(), e, be);
        break;
      case DataDesc::Kind::kRef:
        w.put_u8(v.is_null() ? 0 : 1);
        if (!v.is_null())
          encode_node(w, *d.element(), v, be);
        break;
    }
  }

  static Value decode_node(WireReader& r, const DataDesc& d, bool be, const ArchDesc& receiver) {
    switch (d.kind()) {
      case DataDesc::Kind::kScalar: {
        const CType t = d.ctype();
        const int size = cdr_size(t);
        r.align(static_cast<size_t>(size));
        const std::uint64_t bits = r.get_bits(size, be);
        if (ctype_is_float(t))
          return Value(bits_to_float(bits, size == 4));
        if (ctype_is_signed(t)) {
          const std::int64_t x = sign_extend(bits, size);
          check_int_fits(x, receiver.size_of(t), d.name() + " (receiver)");
          return Value(x);
        }
        check_uint_fits(bits, receiver.size_of(t), d.name() + " (receiver)");
        return Value(bits);
      }
      case DataDesc::Kind::kString: {
        r.align(4);
        const size_t len = r.get_count(be, "cdr: string length");
        if (len == 0)
          throw xbt::InvalidArgument("cdr: zero-length string (missing NUL)");
        std::string s(len - 1, '\0');
        r.get_bytes(s.data(), len - 1);
        r.skip(1);  // NUL
        return Value(std::move(s));
      }
      case DataDesc::Kind::kStruct: {
        ValueStruct out;
        out.reserve(d.fields().size());
        for (const auto& f : d.fields())
          out.emplace_back(f.name, decode_node(r, *f.desc, be, receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kFixedArray: {
        ValueList out;
        out.reserve(d.array_size());
        for (size_t i = 0; i < d.array_size(); ++i)
          out.push_back(decode_node(r, *d.element(), be, receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kDynArray: {
        r.align(4);
        const size_t n = r.get_count(be, "cdr: sequence length");
        ValueList out;
        out.reserve(n);
        for (size_t i = 0; i < n; ++i)
          out.push_back(decode_node(r, *d.element(), be, receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kRef: {
        if (r.get_u8() == 0)
          return Value::null();
        return decode_node(r, *d.element(), be, receiver);
      }
    }
    throw xbt::InvalidArgument("cdr: corrupt description");
  }
};

}  // namespace

const Codec& cdr_codec() {
  static CdrCodec codec;
  return codec;
}

}  // namespace sg::datadesc
