// Bit-granular readers and writers over byte buffers.
//
// Two orders are provided because the codecs disagree: the Huffman coder
// emits codes MSB-first (canonical-code convention), while the ZFP-style
// bit-plane coder consumes bits LSB-first within 64-bit words.
#pragma once

#include <cstring>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace fz {

/// MSB-first bit writer: the first bit written becomes the top bit of the
/// first byte.
class BitWriterMsb {
 public:
  void put_bit(bool b) {
    acc_ = (acc_ << 1) | u64{b};
    if (++nbits_ == 8) flush_byte();
  }
  /// Write the low `n` bits of `v`, most significant of those first.
  void put_bits(u64 v, int n) {
    FZ_REQUIRE(n >= 0 && n <= 64, "bad bit count");
    for (int i = n - 1; i >= 0; --i) put_bit((v >> i) & 1);
  }
  /// Pad to a byte boundary with zero bits.
  void align_byte() {
    while (nbits_ != 0) put_bit(false);
  }
  size_t bit_count() const { return bytes_.size() * 8 + nbits_; }
  std::vector<u8> take() {
    align_byte();
    return std::move(bytes_);
  }

 private:
  void flush_byte() {
    bytes_.push_back(static_cast<u8>(acc_));
    acc_ = 0;
    nbits_ = 0;
  }
  std::vector<u8> bytes_;
  u64 acc_ = 0;
  int nbits_ = 0;
};

/// MSB-first bit reader with a buffered multi-bit peek/consume surface.
/// `peek(n)` exposes the next n bits without advancing (zero-padded past the
/// end of the stream, so a lookup-table decode can always index with a full
/// window), and `consume(n)` advances with the same exhaustion check the
/// bit-at-a-time reader enforced — a code resolved against padding still
/// fails with FormatError the moment it is consumed past the real data.
class BitReaderMsb {
 public:
  /// Widest peek/consume: the 64-bit refill buffer always holds >= 57 valid
  /// bits after refill (it tops up in whole bytes).
  static constexpr int kMaxPeek = 57;

  explicit BitReaderMsb(ByteSpan data) : data_(data) {}
  /// Start reading at an arbitrary bit offset (gap-array segment decode).
  /// `start_bit` beyond the stream is a FormatError: segment offsets come
  /// from untrusted headers.
  BitReaderMsb(ByteSpan data, size_t start_bit) : data_(data) {
    FZ_FORMAT_REQUIRE(start_bit <= data_.size() * 8, "bad bit offset");
    pos_ = start_bit;
    fill_byte_ = start_bit / 8;
    const int drop = static_cast<int>(start_bit % 8);
    if (drop != 0) {
      refill();
      buf_ <<= drop;
      buf_bits_ -= drop;
    }
  }

  /// Next `n` (0..kMaxPeek) bits, MSB-first, in the low bits of the result;
  /// bits past the end of the stream read as zero.  Does not advance.
  u64 peek(int n) {
    FZ_REQUIRE(n >= 0 && n <= kMaxPeek, "bad peek width");
    if (buf_bits_ < n) refill();
    return n == 0 ? 0 : buf_ >> (64 - n);
  }
  /// Advance by `n` (0..kMaxPeek) bits; FormatError past the end.
  void consume(int n) {
    FZ_REQUIRE(n >= 0 && n <= kMaxPeek, "bad consume width");
    FZ_FORMAT_REQUIRE(pos_ + static_cast<size_t>(n) <= data_.size() * 8,
                      "bit stream exhausted");
    if (buf_bits_ < n) refill();
    pos_ += static_cast<size_t>(n);
    buf_ <<= n;
    buf_bits_ -= n;
  }

  bool get_bit() {
    const bool b = peek(1) != 0;
    consume(1);
    return b;
  }
  u64 get_bits(int n) {
    FZ_REQUIRE(n >= 0 && n <= 64, "bad bit count");
    u64 v = 0;
    while (n > kMaxPeek) {
      v = (v << kMaxPeek) | peek(kMaxPeek);
      consume(kMaxPeek);
      n -= kMaxPeek;
    }
    if (n != 0) {
      v = (v << n) | peek(n);
      consume(n);
    }
    return v;
  }
  size_t bit_pos() const { return pos_; }

 private:
  void refill() {
    // MSB-aligned: the next unread bit is bit 63 of buf_.  Bytes past the
    // end refill as zero (peek padding); consume()'s position check is what
    // rejects reads into the padding.
    if (fill_byte_ + 8 <= data_.size()) {
      // Fast path: one unaligned 64-bit load per refill instead of a
      // byte-at-a-time loop (this sits under every peek of the table-driven
      // Huffman decode).  The shift-OR assembly is recognized as
      // load+byteswap by the usual compilers.
      u64 w = 0;
      for (int k = 0; k < 8; ++k)
        w = (w << 8) | u64{data_[fill_byte_ + static_cast<size_t>(k)]};
      const int added = (64 - buf_bits_) >> 3;  // whole bytes that fit
      const int bits = added * 8;               // 8..64
      buf_ |= ((w >> (64 - bits)) << (64 - bits)) >> buf_bits_;
      fill_byte_ += static_cast<size_t>(added);
      buf_bits_ += bits;
      return;
    }
    while (buf_bits_ <= 56) {
      const u64 b = fill_byte_ < data_.size() ? data_[fill_byte_] : 0;
      buf_ |= b << (56 - buf_bits_);
      ++fill_byte_;
      buf_bits_ += 8;
    }
  }

  ByteSpan data_;
  u64 buf_ = 0;
  int buf_bits_ = 0;
  size_t fill_byte_ = 0;  ///< next byte to load into the buffer
  size_t pos_ = 0;        ///< bits consumed so far
};

/// LSB-first bit writer over 64-bit words (ZFP-style stream).
class BitWriterLsb {
 public:
  void put_bit(bool b) {
    if (b) acc_ |= u64{1} << nbits_;
    if (++nbits_ == 64) flush_word();
  }
  /// put_bit that returns the bit written — lets the ZFP group-testing
  /// loops keep their original (compact) control flow.
  bool put_bit_r(bool b) {
    put_bit(b);
    return b;
  }
  /// Write the low `n` bits of `v`, least significant first.
  void put_bits(u64 v, int n) {
    FZ_REQUIRE(n >= 0 && n <= 64, "bad bit count");
    for (int i = 0; i < n; ++i) put_bit((v >> i) & 1);
  }
  size_t bit_count() const { return words_.size() * 64 + nbits_; }
  /// Finish the stream; returns the packed words plus the total bit count.
  std::vector<u64> take() {
    if (nbits_ != 0) flush_word();
    return std::move(words_);
  }

 private:
  void flush_word() {
    words_.push_back(acc_);
    acc_ = 0;
    nbits_ = 0;
  }
  std::vector<u64> words_;
  u64 acc_ = 0;
  int nbits_ = 0;
};

class BitReaderLsb {
 public:
  explicit BitReaderLsb(std::span<const u64> words, size_t bit_count)
      : words_(words), bit_count_(bit_count) {}
  bool get_bit() {
    FZ_FORMAT_REQUIRE(pos_ < bit_count_, "bit stream exhausted");
    const bool b = (words_[pos_ / 64] >> (pos_ % 64)) & 1;
    ++pos_;
    return b;
  }
  u64 get_bits(int n) {
    u64 v = 0;
    for (int i = 0; i < n; ++i) v |= u64{get_bit()} << i;
    return v;
  }
  size_t bit_pos() const { return pos_; }

 private:
  std::span<const u64> words_;
  size_t bit_count_;
  size_t pos_ = 0;
};

/// Append/read trivially-copyable scalars to a byte vector (stream headers).
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<u8>& out) : out_(out) {}
  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t off = out_.size();
    out_.resize(off + sizeof(T));
    std::memcpy(out_.data() + off, &v, sizeof(T));
  }
  void put_bytes(ByteSpan b) { out_.insert(out_.end(), b.begin(), b.end()); }

 private:
  std::vector<u8>& out_;
};

class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}
  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    FZ_FORMAT_REQUIRE(pos_ + sizeof(T) <= data_.size(), "byte stream exhausted");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  ByteSpan get_bytes(size_t n) {
    FZ_FORMAT_REQUIRE(pos_ + n <= data_.size(), "byte stream exhausted");
    ByteSpan s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace fz
