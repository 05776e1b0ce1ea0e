#ifndef TRANSEDGE_COMMON_CODEC_H_
#define TRANSEDGE_COMMON_CODEC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace transedge {

/// Declarative binary codec: the single definition of the wire and
/// on-disk formats. Every encoded struct lists its fields once,
///
///     template <class Self, class V>
///     static void Fields(Self& self, V& v) { v(self.a, self.b); }
///
/// and one encoder and one decoder walk that list (`Self` is `const T`
/// when encoding, `T` when decoding), so the two directions cannot
/// drift apart. Fields are written in list order, little-endian:
///   - integers at their own width, `bool` as one byte;
///   - `std::string` and `Bytes` as a u32 length + the raw bytes;
///   - `std::array<uint8_t, N>` as N raw bytes (digests, MACs);
///   - `std::vector<T>` as a u32 count + each element;
///   - `std::shared_ptr<const T>` as its T, inline, exactly like a plain
///     T field: the pointer never reaches the bytes. It must not be null
///     on encode, and decodes into a freshly allocated T, so a value
///     built once can be shared by many messages and stay immutable;
///   - `Reserved<T>{}` as a zero T, skipped on decode (format padding);
///   - any struct with a `Fields` list as its fields, inline.
/// A field may be conditional on an earlier one
/// (`v(self.has_x); if (self.has_x) v(self.x);`): the decoder has
/// filled the earlier field by the time the branch runs. Both visitors
/// are resolved at compile time down to the `Encoder`/`Decoder` calls.

/// Padding of type T: encodes as zero, decodes to nothing.
template <class T>
struct Reserved {};

namespace codec_internal {

class FieldEncoder {
 public:
  explicit FieldEncoder(Encoder* enc) : enc_(enc) {}

  template <class... F>
  void operator()(const F&... fields) {
    (Put(fields), ...);
  }

 private:
  void Put(uint8_t v) { enc_->PutU8(v); }
  void Put(uint16_t v) { enc_->PutU16(v); }
  void Put(uint32_t v) { enc_->PutU32(v); }
  void Put(uint64_t v) { enc_->PutU64(v); }
  void Put(int64_t v) { enc_->PutI64(v); }
  void Put(bool v) { enc_->PutBool(v); }
  void Put(const std::string& s) { enc_->PutString(s); }
  void Put(const Bytes& b) { enc_->PutBytes(b); }
  template <size_t N>
  void Put(const std::array<uint8_t, N>& a) {
    enc_->PutRaw(a.data(), N);
  }
  template <class T>
  void Put(const std::vector<T>& items) {
    enc_->PutU32(static_cast<uint32_t>(items.size()));
    for (const T& item : items) Put(item);
  }
  template <class T>
  void Put(const std::shared_ptr<const T>& shared) {
    Put(*shared);
  }
  template <class T>
  void Put(const Reserved<T>&) {
    Put(T{0});
  }
  template <class T>
  void Put(const T& record) {
    T::Fields(record, *this);
  }

  Encoder* enc_;
};

class FieldDecoder {
 public:
  explicit FieldDecoder(Decoder* dec) : dec_(dec) {}

  /// Decodes `fields` in order; after the first failure the rest are
  /// left untouched and `status()` holds the error.
  template <class... F>
  void operator()(F&&... fields) {
    (void)((status_.ok() && (Get(fields), status_.ok())) && ...);
  }

  const Status& status() const { return status_; }

 private:
  void Get(uint8_t& v) { Take(dec_->GetU8(), &v); }
  void Get(uint16_t& v) { Take(dec_->GetU16(), &v); }
  void Get(uint32_t& v) { Take(dec_->GetU32(), &v); }
  void Get(uint64_t& v) { Take(dec_->GetU64(), &v); }
  void Get(int64_t& v) { Take(dec_->GetI64(), &v); }
  void Get(bool& v) { Take(dec_->GetBool(), &v); }
  void Get(std::string& s) { Take(dec_->GetString(), &s); }
  void Get(Bytes& b) { Take(dec_->GetBytes(), &b); }
  template <size_t N>
  void Get(std::array<uint8_t, N>& a) {
    status_ = dec_->GetRawInto(a.data(), N);
  }
  template <class T>
  void Get(std::vector<T>& items) {
    Result<uint32_t> count = dec_->GetCount();
    if (!count.ok()) {
      status_ = count.status();
      return;
    }
    items.clear();
    items.reserve(count.value());
    for (uint32_t i = 0; i < count.value() && status_.ok(); ++i) {
      Get(items.emplace_back());
    }
  }
  template <class T>
  void Get(std::shared_ptr<const T>& shared) {
    auto fresh = std::make_shared<T>();
    Get(*fresh);
    shared = std::move(fresh);
  }
  template <class T>
  void Get(Reserved<T>&) {
    T ignored{};
    Get(ignored);
  }
  template <class T>
  void Get(T& record) {
    T::Fields(record, *this);
  }

  template <class T>
  void Take(Result<T> result, T* out) {
    if (result.ok()) {
      *out = std::move(result).value();
    } else {
      status_ = result.status();
    }
  }

  Decoder* dec_;
  Status status_;
};

}  // namespace codec_internal

/// Appends `value`'s encoding to `enc`.
template <class T>
void Encode(const T& value, Encoder* enc) {
  codec_internal::FieldEncoder visitor(enc);
  visitor(value);
}

/// Decodes one `T` from `dec`; Corruption on truncated or malformed
/// input. Does not require `dec` to be exhausted afterwards.
template <class T>
Result<T> Decode(Decoder* dec) {
  T value{};
  codec_internal::FieldDecoder visitor(dec);
  visitor(value);
  if (!visitor.status().ok()) return visitor.status();
  return value;
}

}  // namespace transedge

#endif  // TRANSEDGE_COMMON_CODEC_H_
