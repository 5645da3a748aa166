/// PBIO-style codec: self-describing binary. Every message carries a
/// metadata section describing the format (field names, kinds, scalar types)
/// followed by the data in the sender's native layout. The receiver parses
/// the metadata, checks it against the expected description, and interprets
/// the data through it. (Real PBIO caches formats per peer; shipping the
/// metadata per message models its format-negotiation overhead.)
#include "datadesc/codec.hpp"
#include "datadesc/wire.hpp"

namespace sg::datadesc {
namespace {

class PbioCodec final : public Codec {
public:
  const char* name() const override { return "pbio"; }

  std::vector<std::uint8_t> encode(const DataDesc& desc, const Value& v,
                                   const ArchDesc& sender) const override {
    WireWriter w;
    w.put_u8(static_cast<std::uint8_t>(sender.id));
    encode_meta(w, desc);
    encode_data(w, desc, v, sender);
    return w.take();
  }

  Value decode(const DataDesc& desc, const std::vector<std::uint8_t>& buf,
               const ArchDesc& receiver) const override {
    WireReader r(buf);
    const ArchDesc& sender = arch_by_id(r.get_u8());
    check_meta(r, desc);
    return decode_data(r, desc, sender, receiver);
  }

private:
  // -- metadata: kind byte, ctype byte, name, children ----------------------------
  static void encode_meta(WireWriter& w, const DataDesc& d) {
    w.put_u8(static_cast<std::uint8_t>(d.kind()));
    w.put_u8(static_cast<std::uint8_t>(d.ctype()));
    w.put_bits(d.name().size(), 2, true);
    w.put_bytes(d.name().data(), d.name().size());
    switch (d.kind()) {
      case DataDesc::Kind::kStruct:
        w.put_bits(d.fields().size(), 2, true);
        for (const auto& f : d.fields()) {
          w.put_bits(f.name.size(), 2, true);
          w.put_bytes(f.name.data(), f.name.size());
          encode_meta(w, *f.desc);
        }
        break;
      case DataDesc::Kind::kFixedArray:
        w.put_bits(d.array_size(), 4, true);
        encode_meta(w, *d.element());
        break;
      case DataDesc::Kind::kDynArray:
      case DataDesc::Kind::kRef:
        encode_meta(w, *d.element());
        break;
      default:
        break;
    }
  }

  /// Parse the incoming metadata and verify it structurally matches what the
  /// receiver expects (PBIO's format-compatibility check).
  static void check_meta(WireReader& r, const DataDesc& d) {
    const auto kind = static_cast<DataDesc::Kind>(r.get_u8());
    const auto ctype = static_cast<CType>(r.get_u8());
    const auto name_len = static_cast<size_t>(r.get_bits(2, true));
    std::string name(name_len, '\0');
    r.get_bytes(name.data(), name_len);
    if (kind != d.kind())
      throw xbt::InvalidArgument("pbio: format mismatch at '" + d.name() + "'");
    switch (kind) {
      case DataDesc::Kind::kScalar:
        if (ctype != d.ctype())
          throw xbt::InvalidArgument("pbio: scalar type mismatch at '" + d.name() + "'");
        break;
      case DataDesc::Kind::kStruct: {
        const auto n = static_cast<size_t>(r.get_bits(2, true));
        if (n != d.fields().size())
          throw xbt::InvalidArgument("pbio: field count mismatch at '" + d.name() + "'");
        for (const auto& f : d.fields()) {
          const auto fn_len = static_cast<size_t>(r.get_bits(2, true));
          std::string fn(fn_len, '\0');
          r.get_bytes(fn.data(), fn_len);
          if (fn != f.name)
            throw xbt::InvalidArgument("pbio: field name mismatch: got '" + fn + "', want '" +
                                       f.name + "'");
          check_meta(r, *f.desc);
        }
        break;
      }
      case DataDesc::Kind::kFixedArray: {
        const auto n = static_cast<size_t>(r.get_bits(4, true));
        if (n != d.array_size())
          throw xbt::InvalidArgument("pbio: array size mismatch at '" + d.name() + "'");
        check_meta(r, *d.element());
        break;
      }
      case DataDesc::Kind::kDynArray:
      case DataDesc::Kind::kRef:
        check_meta(r, *d.element());
        break;
      default:
        break;
    }
  }

  // -- data: native sender layout (like NDR, alignment included) -------------------
  static void encode_data(WireWriter& w, const DataDesc& d, const Value& v, const ArchDesc& arch) {
    switch (d.kind()) {
      case DataDesc::Kind::kScalar: {
        const CType t = d.ctype();
        const int size = arch.size_of(t);
        w.align(arch.align_of(t));
        if (ctype_is_float(t)) {
          w.put_bits(float_to_bits(v.as_float(), size == 4), size, arch.big_endian);
        } else if (ctype_is_signed(t)) {
          check_int_fits(v.as_int(), size, d.name());
          w.put_bits(static_cast<std::uint64_t>(v.as_int()), size, arch.big_endian);
        } else {
          check_uint_fits(v.as_uint(), size, d.name());
          w.put_bits(v.as_uint(), size, arch.big_endian);
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
          encode_data(w, *d.fields()[i].desc, v.as_struct()[i].second, arch);
        break;
      case DataDesc::Kind::kFixedArray:
        for (const Value& e : v.as_list())
          encode_data(w, *d.element(), e, arch);
        break;
      case DataDesc::Kind::kDynArray:
        w.align(4);
        w.put_bits(v.as_list().size(), 4, arch.big_endian);
        for (const Value& e : v.as_list())
          encode_data(w, *d.element(), e, arch);
        break;
      case DataDesc::Kind::kRef:
        w.put_u8(v.is_null() ? 0 : 1);
        if (!v.is_null())
          encode_data(w, *d.element(), v, arch);
        break;
    }
  }

  static Value decode_data(WireReader& r, const DataDesc& d, const ArchDesc& sender,
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
          check_int_fits(x, receiver.size_of(t), d.name() + " (receiver)");
          return Value(x);
        }
        check_uint_fits(bits, receiver.size_of(t), d.name() + " (receiver)");
        return Value(bits);
      }
      case DataDesc::Kind::kString: {
        r.align(4);
        const size_t len = r.get_count(sender.big_endian, "pbio: string length");
        std::string s(len, '\0');
        r.get_bytes(s.data(), len);
        return Value(std::move(s));
      }
      case DataDesc::Kind::kStruct: {
        ValueStruct out;
        out.reserve(d.fields().size());
        for (const auto& f : d.fields())
          out.emplace_back(f.name, decode_data(r, *f.desc, sender, receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kFixedArray: {
        ValueList out;
        out.reserve(d.array_size());
        for (size_t i = 0; i < d.array_size(); ++i)
          out.push_back(decode_data(r, *d.element(), sender, receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kDynArray: {
        r.align(4);
        const size_t n = r.get_count(sender.big_endian, "pbio: array length");
        ValueList out;
        out.reserve(n);
        for (size_t i = 0; i < n; ++i)
          out.push_back(decode_data(r, *d.element(), sender, receiver));
        return Value(std::move(out));
      }
      case DataDesc::Kind::kRef: {
        if (r.get_u8() == 0)
          return Value::null();
        return decode_data(r, *d.element(), sender, receiver);
      }
    }
    throw xbt::InvalidArgument("pbio: corrupt description");
  }
};

}  // namespace

const Codec& pbio_codec() {
  static PbioCodec codec;
  return codec;
}

}  // namespace sg::datadesc
