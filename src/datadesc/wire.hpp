/// \file wire.hpp
/// Low-level byte stream reader/writer shared by the codecs: alignment
/// padding, explicit endianness, explicit scalar widths, range checking.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "datadesc/arch.hpp"
#include "xbt/exception.hpp"

namespace sg::datadesc {

class WireWriter {
public:
  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

  void align(size_t alignment) {
    if (alignment > 1)
      while (buf_.size() % alignment != 0)
        buf_.push_back(0);
  }

  void put_bytes(const void* data, size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }

  /// Write the low `size` bytes of `bits` with the requested byte order.
  void put_bits(std::uint64_t bits, int size, bool big_endian) {
    std::uint8_t tmp[8];
    for (int i = 0; i < size; ++i)
      tmp[i] = static_cast<std::uint8_t>(bits >> (8 * i));  // little-endian order
    if (big_endian)
      for (int i = size - 1; i >= 0; --i)
        buf_.push_back(tmp[i]);
    else
      put_bytes(tmp, static_cast<size_t>(size));
  }

private:
  std::vector<std::uint8_t> buf_;
};

class WireReader {
public:
  explicit WireReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return buf_.size() - pos_; }
  bool exhausted() const { return pos_ >= buf_.size(); }

  void align(size_t alignment) {
    if (alignment > 1)
      while (pos_ % alignment != 0)
        skip(1);
  }

  void skip(size_t n) {
    need(n);
    pos_ += n;
  }

  std::uint8_t get_u8() {
    need(1);
    return buf_[pos_++];
  }

  void get_bytes(void* out, size_t n) {
    need(n);
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
  }

  std::uint64_t get_bits(int size, bool big_endian) {
    need(static_cast<size_t>(size));
    std::uint64_t bits = 0;
    if (big_endian) {
      for (int i = 0; i < size; ++i)
        bits = (bits << 8) | buf_[pos_ + static_cast<size_t>(i)];
    } else {
      for (int i = size - 1; i >= 0; --i)
        bits = (bits << 8) | buf_[pos_ + static_cast<size_t>(i)];
    }
    pos_ += static_cast<size_t>(size);
    return bits;
  }

  /// Read a peer-supplied 32-bit element or byte count. Elements that carry
  /// data take at least one byte on the wire, so a count above the bytes
  /// left is corrupt: reject it before anything is sized from it.
  size_t get_count(bool big_endian, const char* what) {
    const auto n = static_cast<size_t>(get_bits(4, big_endian));
    if (n > remaining())
      throw xbt::InvalidArgument(std::string(what) + ": count " + std::to_string(n) +
                                 " exceeds the " + std::to_string(remaining()) + " bytes left");
    return n;
  }

private:
  void need(size_t n) const {
    if (pos_ + n > buf_.size())
      throw xbt::InvalidArgument("wire: truncated buffer (need " + std::to_string(n) + " at " +
                                 std::to_string(pos_) + "/" + std::to_string(buf_.size()) + ")");
  }

  const std::vector<std::uint8_t>& buf_;
  size_t pos_ = 0;
};

/// Sign-extend the low `size` bytes of `bits`.
inline std::int64_t sign_extend(std::uint64_t bits, int size) {
  if (size >= 8)
    return static_cast<std::int64_t>(bits);
  const std::uint64_t sign_bit = 1ULL << (8 * size - 1);
  const std::uint64_t mask = (1ULL << (8 * size)) - 1;
  bits &= mask;
  if (bits & sign_bit)
    bits |= ~mask;
  return static_cast<std::int64_t>(bits);
}

/// Check a signed value fits in `size` bytes.
inline void check_int_fits(std::int64_t v, int size, const std::string& what) {
  if (size >= 8)
    return;
  const std::int64_t hi = (1LL << (8 * size - 1)) - 1;
  const std::int64_t lo = -hi - 1;
  if (v < lo || v > hi)
    throw xbt::InvalidArgument(what + ": value " + std::to_string(v) + " does not fit in " +
                               std::to_string(size) + " bytes");
}

inline void check_uint_fits(std::uint64_t v, int size, const std::string& what) {
  if (size >= 8)
    return;
  const std::uint64_t hi = (1ULL << (8 * size)) - 1;
  if (v > hi)
    throw xbt::InvalidArgument(what + ": value " + std::to_string(v) + " does not fit in " +
                               std::to_string(size) + " bytes");
}

inline std::uint64_t float_to_bits(double v, bool single) {
  if (single) {
    const float f = static_cast<float>(v);
    return std::bit_cast<std::uint32_t>(f);
  }
  return std::bit_cast<std::uint64_t>(v);
}

inline double bits_to_float(std::uint64_t bits, bool single) {
  if (single)
    return static_cast<double>(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  return std::bit_cast<double>(bits);
}

inline bool ctype_is_float(CType t) { return t == CType::kFloat || t == CType::kDouble; }
inline bool ctype_is_signed(CType t) {
  switch (t) {
    case CType::kInt8:
    case CType::kInt16:
    case CType::kInt32:
    case CType::kInt64:
    case CType::kLong:
      return true;
    default:
      return false;
  }
}

}  // namespace sg::datadesc
