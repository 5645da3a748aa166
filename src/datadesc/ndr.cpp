/// NDR ("receiver makes right") codec — the GRAS wire format. The sender
/// writes its native layout, so a homogeneous exchange costs near-raw-memory
/// speed on both sides; the receiver performs byte swapping and integer
/// resizing only when architectures differ.
#include "datadesc/codec.hpp"
#include "datadesc/wire.hpp"

namespace sg::datadesc {
namespace {

class NdrCodec final : public Codec {
public:
  const char* name() const override { return "gras"; }

  std::vector<std::uint8_t> encode(const DataDesc& desc, const Value& v,
                                   const ArchDesc& sender) const override {
    WireWriter w;
    w.put_u8(static_cast<std::uint8_t>(sender.id));
    encode_node(w, desc, v, sender);
    return w.take();
  }

  Value decode(const DataDesc& desc, const std::vector<std::uint8_t>& buf,
               const ArchDesc& receiver) const override {
    WireReader r(buf);
    const ArchDesc& sender = arch_by_id(r.get_u8());
    return decode_node(r, desc, sender, receiver);
  }

private:
  static void encode_node(WireWriter& w, const DataDesc& d, const Value& v, const ArchDesc& arch) {
    switch (d.kind()) {
      case DataDesc::Kind::kScalar: {
        const CType t = d.ctype();
        const int size = arch.size_of(t);
        w.align(arch.align_of(t));
        if (ctype_is_float(t)) {
          w.put_bits(float_to_bits(v.as_float(), size == 4), size, arch.big_endian);
        } else if (ctype_is_signed(t)) {
          const std::int64_t x = v.as_int();
          check_int_fits(x, size, d.name());
          w.put_bits(static_cast<std::uint64_t>(x), size, arch.big_endian);
        } else {
          const std::uint64_t x = v.as_uint();
          check_uint_fits(x, size, d.name());
          w.put_bits(x, size, arch.big_endian);
        }
        break;
      }
      case DataDesc::Kind::kString: {
        const std::string& s = v.as_string();
        w.align(4);
        w.put_bits(s.size(), 4, arch.big_endian);
        w.put_bytes(s.data(), s.size());
        break;
      }
      case DataDesc::Kind::kStruct:
        for (size_t i = 0; i < d.fields().size(); ++i)
          encode_node(w, *d.fields()[i].desc, v.as_struct()[i].second, arch);
        break;
      case DataDesc::Kind::kFixedArray:
        for (const Value& e : v.as_list())
          encode_node(w, *d.element(), e, arch);
        break;
      case DataDesc::Kind::kDynArray: {
        w.align(4);
        w.put_bits(v.as_list().size(), 4, arch.big_endian);
        for (const Value& e : v.as_list())
          encode_node(w, *d.element(), e, arch);
        break;
      }
      case DataDesc::Kind::kRef: {
        w.put_u8(v.is_null() ? 0 : 1);
        if (!v.is_null())
          encode_node(w, *d.element(), v, arch);
        break;
      }
    }
  }

  static Value decode_node(WireReader& r, const DataDesc& d, const ArchDesc& sender,
                           const ArchDesc& receiver) {
    switch (d.kind()) {
      case DataDesc::Kind::kScalar: {
        const CType t = d.ctype();
        const int size = sender.size_of(t);
        r.align(sender.align_of(t));
        const std::uint64_t bits = r.get_bits(size, sender.big_endian);
        if (ctype_is_float(t))
          return Value(bits_to_float(bits, size == 4));
        if (ctype_is_signed(t)) {
          const std::int64_t x = sign_extend(bits, size);
          // receiver-makes-right: the receiver must be able to represent it
          check_int_fits(x, receiver.size_of(t), d.name() + " (receiver)");
          return Value(x);
        }
        check_uint_fits(bits, receiver.size_of(t), d.name() + " (receiver)");
        return Value(bits);
      }
      case DataDesc::Kind::kString: {
        r.align(4);
        const size_t len = r.get_count(sender.big_endian, "ndr: string length");
        std::string s(len, '\0');
        r.get_bytes(s.data(), len);
        return Value(std::move(s));
      }
      case DataDesc::Kind::kStruct: {
        ValueStruct out;
        out.reserve(d.fields().size());
        for (const auto& f : d.fields())
          out.emplace_back(f.name, decode_node(r, *f.desc, sender, receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kFixedArray: {
        ValueList out;
        out.reserve(d.array_size());
        for (size_t i = 0; i < d.array_size(); ++i)
          out.push_back(decode_node(r, *d.element(), sender, receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kDynArray: {
        r.align(4);
        const size_t n = r.get_count(sender.big_endian, "ndr: array length");
        ValueList out;
        out.reserve(n);
        for (size_t i = 0; i < n; ++i)
          out.push_back(decode_node(r, *d.element(), sender, receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kRef: {
        if (r.get_u8() == 0)
          return Value::null();
        return decode_node(r, *d.element(), sender, receiver);
      }
    }
    throw xbt::InvalidArgument("ndr: corrupt description");
  }
};

}  // namespace

const Codec& ndr_codec() {
  static NdrCodec codec;
  return codec;
}

}  // namespace sg::datadesc
