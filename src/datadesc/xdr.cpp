/// XDR-style codec ("mpich" in the paper's tables): a canonical external
/// representation — big-endian, 4-byte quantization (8 for 64-bit types).
/// Both peers always convert to/from the canonical form, which makes the
/// homogeneous case pay the same CPU cost as the heterogeneous one.
#include "datadesc/codec.hpp"
#include "datadesc/wire.hpp"

namespace sg::datadesc {
namespace {

/// XDR unit size for a scalar: everything is at least 4 bytes on the wire.
int xdr_size(CType t) {
  switch (t) {
    case CType::kInt64:
    case CType::kUInt64:
    case CType::kLong:   // transmitted as hyper so LP64 senders never truncate
    case CType::kULong:
    case CType::kDouble:
      return 8;
    default:
      return 4;
  }
}

class XdrCodec final : public Codec {
public:
  const char* name() const override { return "mpich"; }

  std::vector<std::uint8_t> encode(const DataDesc& desc, const Value& v,
                                   const ArchDesc& sender) const override {
    (void)sender;  // canonical representation: sender layout is irrelevant
    WireWriter w;
    encode_node(w, desc, v);
    return w.take();
  }

  Value decode(const DataDesc& desc, const std::vector<std::uint8_t>& buf,
               const ArchDesc& receiver) const override {
    WireReader r(buf);
    return decode_node(r, desc, receiver);
  }

private:
  static void encode_node(WireWriter& w, const DataDesc& d, const Value& v) {
    switch (d.kind()) {
      case DataDesc::Kind::kScalar: {
        const CType t = d.ctype();
        const int size = xdr_size(t);
        if (ctype_is_float(t)) {
          w.put_bits(float_to_bits(v.as_float(), size == 4), size, /*big_endian=*/true);
        } else if (ctype_is_signed(t)) {
          check_int_fits(v.as_int(), size, d.name());
          w.put_bits(static_cast<std::uint64_t>(v.as_int()), size, true);
        } else {
          check_uint_fits(v.as_uint(), size, d.name());
          w.put_bits(v.as_uint(), size, true);
        }
        break;
      }
      case DataDesc::Kind::kString: {
        const std::string& s = v.as_string();
        w.put_bits(s.size(), 4, true);
        w.put_bytes(s.data(), s.size());
        w.align(4);  // XDR pads opaque data to 4 bytes
        break;
      }
      case DataDesc::Kind::kStruct:
        for (size_t i = 0; i < d.fields().size(); ++i)
          encode_node(w, *d.fields()[i].desc, v.as_struct()[i].second);
        break;
      case DataDesc::Kind::kFixedArray:
        for (const Value& e : v.as_list())
          encode_node(w, *d.element(), e);
        break;
      case DataDesc::Kind::kDynArray:
        w.put_bits(v.as_list().size(), 4, true);
        for (const Value& e : v.as_list())
          encode_node(w, *d.element(), e);
        break;
      case DataDesc::Kind::kRef:
        w.put_bits(v.is_null() ? 0 : 1, 4, true);  // XDR optional-data
        if (!v.is_null())
          encode_node(w, *d.element(), v);
        break;
    }
  }

  static Value decode_node(WireReader& r, const DataDesc& d, const ArchDesc& receiver) {
    switch (d.kind()) {
      case DataDesc::Kind::kScalar: {
        const CType t = d.ctype();
        const int size = xdr_size(t);
        const std::uint64_t bits = r.get_bits(size, true);
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
        const size_t len = r.get_count(true, "xdr: string length");
        std::string s(len, '\0');
        r.get_bytes(s.data(), len);
        r.align(4);
        return Value(std::move(s));
      }
      case DataDesc::Kind::kStruct: {
        ValueStruct out;
        out.reserve(d.fields().size());
        for (const auto& f : d.fields())
          out.emplace_back(f.name, decode_node(r, *f.desc, receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kFixedArray: {
        ValueList out;
        out.reserve(d.array_size());
        for (size_t i = 0; i < d.array_size(); ++i)
          out.push_back(decode_node(r, *d.element(), receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kDynArray: {
        const size_t n = r.get_count(true, "xdr: array length");
        ValueList out;
        out.reserve(n);
        for (size_t i = 0; i < n; ++i)
          out.push_back(decode_node(r, *d.element(), receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kRef: {
        if (r.get_bits(4, true) == 0)
          return Value::null();
        return decode_node(r, *d.element(), receiver);
      }
    }
    throw xbt::InvalidArgument("xdr: corrupt description");
  }
};

}  // namespace

const Codec& xdr_codec() {
  static XdrCodec codec;
  return codec;
}

}  // namespace sg::datadesc
