// Versioned, endian-stable binary container for trained artifacts and wire
// messages, and the field-list vocabulary every serialized type is
// described in.
//
// File layout (all integers little-endian regardless of host):
//   magic   "BPRM"                       4 bytes
//   version u32 (kFormatVersion)         4 bytes
//   length  u64 (payload byte count)     8 bytes
//   payload                              `length` bytes
//   crc32   u32 over the payload         4 bytes
//
// The payload is a stream of typed chunks: every object opens with a 4-char
// tag (e.g. "TNSR"), so a reader that expects a Tensor but meets a
// RandomForest fails loudly instead of misinterpreting bytes.  Reads are
// bounds-checked; truncation, bit flips (CRC), wrong magic, and unknown
// versions all raise IoError.
//
// Field lists.  Each serialized type is described once, as a function
// template over `(Ar& ar, Self& self)` that names its fields in wire order
// (`Self` is const when writing).  Writer and Reader speak the same
// vocabulary, so the list encodes when it runs on a Writer and decodes,
// enforcing its bounds, on a Reader:
//   ar(a, b, c)                    each field in order; the C++ type fixes
//                                  the wire type: bool u8, std::uint32_t
//                                  u32, std::uint64_t / std::size_t u64,
//                                  int i32, float f32, double f64,
//                                  std::string (u64 length + bytes), and a
//                                  std::vector of any of these (u64 count +
//                                  elements)
//   ar.tag("TNSR")                 4-char chunk tag; the reader verifies it
//   ar.version(v, supported, what) u32 struct_version; the reader refuses 0
//                                  and anything above `supported` with
//                                  kVersionMismatch
//   ar.enumeration(e, last, what)  u32 enum value; the reader refuses values
//                                  above `last`
//   ar.sequence(records, each)     u64 count, then each(ar, record)
// A count the reader meets is checked against the bytes left before
// anything is allocated from it.  Reader-only steps — further bounds, and
// building values whose state is private — sit behind
// `if constexpr (Ar::kReads)`.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace bprom::io {

/// What went wrong, coarsely — the public façade (bprom::api) maps these
/// onto its typed Status codes, so each throw site picks the kind that
/// should reach API consumers.
enum class ErrorKind : std::uint8_t {
  /// Malformed bytes: truncation, CRC/tag/magic mismatch, out-of-range
  /// fields.  The default — most throw sites are parse failures.
  kCorrupt = 0,
  /// The artifact does not exist at all.
  kNotFound = 1,
  /// The container was written by a different format version (typically a
  /// newer build's store directory).
  kVersionMismatch = 2,
  /// The operation was invalid for the object's state (e.g. saving an
  /// unfitted detector).
  kPrecondition = 3,
  /// The filesystem failed underneath us (short read/write, no space).
  kIo = 4,
};

/// Raised on malformed, truncated, corrupt, or version-mismatched input.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what,
                   ErrorKind kind = ErrorKind::kCorrupt)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] ErrorKind kind() const { return kind_; }

 private:
  ErrorKind kind_;
};

inline constexpr std::uint32_t kFormatVersion = 1;

static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "field lists give std::size_t and std::uint64_t one wire type");

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte range.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

class Writer {
 public:
  Writer() = default;

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v);
  void write_f32(float v);
  void write_f64(double v);
  /// u64 length prefix + raw bytes.
  void write_string(const std::string& s);
  /// 4-character chunk tag (no length prefix).
  void write_tag(const char (&tag)[5]);

  // Field-list vocabulary (see the file comment).
  static constexpr bool kReads = false;
  template <class... Fields>
  void operator()(const Fields&... fields) {
    (field(fields), ...);
  }
  void tag(const char (&chunk)[5]) { write_tag(chunk); }
  void version(std::uint32_t v, std::uint32_t /*supported*/,
               const char* /*what*/) {
    write_u32(v);
  }
  template <class Enum>
  void enumeration(Enum e, Enum /*last*/, const char* /*what*/) {
    write_u32(static_cast<std::uint32_t>(e));
  }
  template <class T, class Each>
  void sequence(const std::vector<T>& records, Each each) {
    write_u64(records.size());
    for (const T& record : records) each(*this, record);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& payload() const {
    return payload_;
  }

  /// Header + payload + CRC as one byte vector.
  [[nodiscard]] std::vector<std::uint8_t> finish() const;

  /// Write finish() to a file; throws IoError on I/O failure.
  void save_file(const std::string& path) const;

 private:
  // One overload per wire type; any other C++ type fails to compile.
  void field(bool v) { write_u8(v ? 1 : 0); }
  void field(std::uint32_t v) { write_u32(v); }
  void field(std::uint64_t v) { write_u64(v); }
  void field(int v) { write_i32(v); }
  void field(float v) { write_f32(v); }
  void field(double v) { write_f64(v); }
  void field(const std::string& v) { write_string(v); }
  template <class T>
  void field(const std::vector<T>& v) {
    write_u64(v.size());
    for (const T& element : v) field(element);
  }
  template <class T>
  void field(const T&) = delete;

  std::vector<std::uint8_t> payload_;
};

class Reader {
 public:
  /// Parse a full container (header + payload + CRC); throws IoError.
  explicit Reader(std::vector<std::uint8_t> bytes);

  /// Read and parse a container file; throws IoError.
  static Reader from_file(const std::string& path);

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  float read_f32();
  double read_f64();
  std::string read_string();
  /// Consume a 4-char tag and verify it matches; throws IoError otherwise.
  void expect_tag(const char (&tag)[5]);

  // Field-list vocabulary (see the file comment).
  static constexpr bool kReads = true;
  template <class... Fields>
  void operator()(Fields&... fields) {
    (field(fields), ...);
  }
  void tag(const char (&chunk)[5]) { expect_tag(chunk); }
  void version(std::uint32_t& v, std::uint32_t supported, const char* what);
  template <class Enum>
  void enumeration(Enum& e, Enum last, const char* what) {
    e = static_cast<Enum>(read_enum(static_cast<std::uint32_t>(last), what));
  }
  template <class T, class Each>
  void sequence(std::vector<T>& records, Each each) {
    // Every record takes at least one byte; nothing is reserved from the
    // count, so memory grows only with records actually read.
    const std::uint64_t n = read_count(1);
    records.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      T record{};
      each(*this, record);
      records.push_back(std::move(record));
    }
  }

  /// Bytes of payload not yet consumed.
  [[nodiscard]] std::size_t remaining() const {
    return payload_.size() - pos_;
  }

 private:
  // One overload per wire type; any other C++ type fails to compile.
  void field(bool& v) { v = read_u8() != 0; }
  void field(std::uint32_t& v) { v = read_u32(); }
  void field(std::uint64_t& v) { v = read_u64(); }
  void field(int& v) { v = read_i32(); }
  void field(float& v) { v = read_f32(); }
  void field(double& v) { v = read_f64(); }
  void field(std::string& v) { v = read_string(); }
  template <class T>
  void field(std::vector<T>& v) {
    // Bound the count by the smallest encoding of one element: its own
    // width, or the u64 length prefix of a nested string or vector.
    v.assign(read_count(std::is_arithmetic_v<T> ? sizeof(T) : 8), T{});
    for (T& element : v) field(element);
  }
  template <class T>
  void field(T&) = delete;

  void need(std::size_t n) const;
  /// u64 element count, refused when `elem_size`-byte elements of that
  /// count cannot fit in the bytes left.
  std::uint64_t read_count(std::size_t elem_size);
  /// u32 enum value, refused when above `last`.
  std::uint32_t read_enum(std::uint32_t last, const char* what);

  std::vector<std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

}  // namespace bprom::io
