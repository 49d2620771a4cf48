// Wire-level message for the virtual cluster, plus a tiny POD serializer.
//
// Messages are immutable once posted to the fabric (C++ Core Guidelines
// CP.mess): the sender moves the payload in and never touches it again.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/error.h"

namespace mp::vc {

using Payload = std::vector<uint8_t>;

struct Message {
  int src = -1;
  int dst = -1;
  int tag = 0;
  /// Wire sequence number, stamped by the fabric per source rank (1-based;
  /// 0 = unstamped, e.g. a message pushed straight into a mailbox by a
  /// test). Injected duplicates carry the same seq as the original, which
  /// is what lets the destination mailbox discard them (see Mailbox).
  uint64_t seq = 0;
  Payload payload;
};

/// Append-only POD writer.
class WireWriter {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void put_bytes(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  void put_doubles(const double* p, size_t n) {
    put<uint64_t>(n);
    put_bytes(p, n * sizeof(double));
  }

  Payload take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  Payload buf_;
};

/// Sequential POD reader over a received payload.
class WireReader {
 public:
  explicit WireReader(const Payload& p) : data_(p.data()), size_(p.size()) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    MP_REQUIRE(pos_ + sizeof(T) <= size_, "WireReader: truncated message");
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Element count of the put_doubles array at the read position, without
  /// consuming it: lets the caller size a destination for get_doubles_into.
  /// Checked against the payload, so a corrupt count never reaches an
  /// allocation.
  size_t peek_doubles_count() const {
    MP_REQUIRE(pos_ + sizeof(uint64_t) <= size_,
               "WireReader: truncated message");
    uint64_t n;
    std::memcpy(&n, data_ + pos_, sizeof(n));
    MP_REQUIRE(n <= (size_ - pos_ - sizeof(uint64_t)) / sizeof(double),
               "WireReader: truncated double array");
    return static_cast<size_t>(n);
  }

  /// Decodes a put_doubles array straight into `out` — no temporary, and
  /// `out` keeps its storage. `out` is resized to the array's length (a
  /// destination of that size already neither reallocates nor fills) and
  /// every element overwritten.
  void get_doubles_into(std::vector<double>& out) {
    const size_t n = peek_doubles_count();
    pos_ += sizeof(uint64_t);
    out.resize(n);
    if (n > 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace mp::vc
