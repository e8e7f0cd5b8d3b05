// Little-endian binary writer/reader behind the .mckpt checkpoint blob and
// the resolved-config encoding (DESIGN.md §14). Fixed-width fields only, no
// varints; the blob layout itself is documented in ckpt/fingerprint.hpp.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace manet::ckpt {

/// Checkpoint format version. Bump on any layout change; resume refuses a
/// mismatched file rather than guessing (DESIGN.md §14 versioning policy).
inline constexpr std::uint32_t kFormatVersion = 4;

/// Leading magic; the trailing newline catches text-mode mangling early.
inline constexpr char kMagic[] = "MCKPT1\n";
inline constexpr std::size_t kMagicLen = 7;

/// Any malformed/mismatched/corrupt checkpoint surfaces as this.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Appends little-endian fields to a growing byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void time(sim::TimePoint t) { i64(t.ticks()); }
  void duration(sim::Duration d) { i64(d.ticks()); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> buf_;
};

/// Reads little-endian fields; throws Error on truncation.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return need(1), data_[pos_++]; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  sim::TimePoint time() { return sim::TimePoint{i64()}; }
  sim::Duration duration() { return sim::Duration{i64()}; }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool atEnd() const { return pos_ == size_; }

 private:
  void need(std::uint64_t n) {
    if (n > size_ - pos_) {
      throw Error("checkpoint truncated: need " + std::to_string(n) +
                  " bytes at offset " + std::to_string(pos_) + ", have " +
                  std::to_string(size_ - pos_));
    }
  }
  std::uint64_t le(int n) {
    need(static_cast<std::uint64_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace manet::ckpt
