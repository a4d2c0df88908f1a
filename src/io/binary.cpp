#include "io/binary.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/failpoint.hpp"

namespace bprom::io {
namespace {

constexpr std::array<char, 4> kMagic = {'B', 'P', 'R', 'M'};

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    table[i] = c;
  }
  return table;
}

std::uint64_t load_le(const std::uint8_t* p, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFFU] ^ (c >> 8U);
  }
  return c ^ 0xFFFFFFFFU;
}

// --------------------------------------------------------------- Writer

void Writer::write_u8(std::uint8_t v) { payload_.push_back(v); }

void Writer::write_u32(std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    payload_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::write_u64(std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    payload_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::write_i32(std::int32_t v) {
  write_u32(static_cast<std::uint32_t>(v));
}

void Writer::write_f32(float v) {
  static_assert(sizeof(float) == 4);
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u32(bits);
}

void Writer::write_f64(double v) {
  static_assert(sizeof(double) == 8);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void Writer::write_string(const std::string& s) {
  write_u64(s.size());
  for (char c : s) payload_.push_back(static_cast<std::uint8_t>(c));
}

void Writer::write_tag(const char (&tag)[5]) {
  for (std::size_t i = 0; i < 4; ++i) {
    payload_.push_back(static_cast<std::uint8_t>(tag[i]));
  }
}

std::vector<std::uint8_t> Writer::finish() const {
  std::vector<std::uint8_t> out;
  out.reserve(payload_.size() + 20);
  for (char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  for (std::size_t i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(kFormatVersion >> (8 * i)));
  }
  const std::uint64_t len = payload_.size();
  for (std::size_t i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  out.insert(out.end(), payload_.begin(), payload_.end());
  const std::uint32_t crc = crc32(payload_.data(), payload_.size());
  for (std::size_t i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return out;
}

namespace {

/// RAII fd so every throw below closes cleanly.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

/// write(2) the whole buffer, retrying on EINTR / partial progress.
bool write_fully(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void Writer::save_file(const std::string& path) const {
  const auto bytes = finish();
  // Stage into a sibling temp file and rename into place: a concurrent
  // reader (e.g. a store resolve racing a publish) must never observe a
  // half-written container, and rename within one directory is atomic.
  //
  // Durability order matters: fsync the temp file BEFORE the rename (else a
  // crash can leave the final name pointing at zero-length or torn data on
  // journaled filesystems), and fsync the parent directory AFTER (else the
  // rename itself — the directory entry — can be lost on power cut even
  // though the bytes hit the platter).
  const std::string tmp = path + ".tmp";
  Fd out;
  if (auto hit = BPROM_FAILPOINT("io.save.open")) {
    (void)hit;
    throw IoError("injected open failure: " + tmp, ErrorKind::kIo);
  }
  out.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out.fd < 0)
    throw IoError("cannot open for writing: " + tmp, ErrorKind::kIo);
  std::size_t to_write = bytes.size();
  if (auto hit = BPROM_FAILPOINT("io.save.write")) {
    if (hit.action == util::FailpointAction::kShort) {
      // Write only the first `arg` bytes — a torn write — then report the
      // failure the real kernel would have surfaced.
      to_write = std::min<std::size_t>(to_write, hit.arg);
      (void)write_fully(out.fd, bytes.data(), to_write);
    }
    throw IoError("injected short write: " + tmp, ErrorKind::kIo);
  }
  if (!write_fully(out.fd, bytes.data(), to_write))
    throw IoError("short write: " + tmp, ErrorKind::kIo);
  if (auto hit = BPROM_FAILPOINT("io.save.fsync.file")) {
    (void)hit;
    throw IoError("injected fsync failure: " + tmp, ErrorKind::kIo);
  }
  if (::fsync(out.fd) != 0)
    throw IoError("fsync failed: " + tmp, ErrorKind::kIo);
  if (::close(out.fd) != 0) {
    out.fd = -1;
    throw IoError("close failed: " + tmp, ErrorKind::kIo);
  }
  out.fd = -1;
  if (auto hit = BPROM_FAILPOINT("io.save.rename")) {
    (void)hit;
    throw IoError("injected rename failure: " + tmp, ErrorKind::kIo);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw IoError("cannot move " + tmp + " into place: " +
                      std::string(std::strerror(errno)),
                  ErrorKind::kIo);
  }
  if (auto hit = BPROM_FAILPOINT("io.save.fsync.dir")) {
    (void)hit;
    throw IoError("injected directory fsync failure: " + path,
                  ErrorKind::kIo);
  }
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  Fd dir;
  dir.fd = ::open(parent.empty() ? "." : parent.c_str(),
                  O_RDONLY | O_DIRECTORY);
  if (dir.fd < 0 || ::fsync(dir.fd) != 0) {
    throw IoError("cannot fsync parent directory of " + path,
                  ErrorKind::kIo);
  }
}

// --------------------------------------------------------------- Reader

Reader::Reader(std::vector<std::uint8_t> bytes) {
  if (bytes.size() < 20) throw IoError("container truncated: no header");
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin())) {
    throw IoError("bad magic: not a .bprom container");
  }
  const auto version = static_cast<std::uint32_t>(load_le(&bytes[4], 4));
  if (version != kFormatVersion) {
    // A newer container (from a newer build's store) is rejected cleanly so
    // callers can say "upgrade me" instead of crashing on garbage.
    const char* hint = version > kFormatVersion
                           ? " — written by a newer build than this one"
                           : "";
    throw IoError("unsupported format version " + std::to_string(version) +
                      " (this build supports " +
                      std::to_string(kFormatVersion) + ")" + hint,
                  ErrorKind::kVersionMismatch);
  }
  const std::uint64_t len = load_le(&bytes[8], 8);
  if (bytes.size() != 20 + len) {
    throw IoError("container truncated: payload length mismatch");
  }
  const auto stored_crc = static_cast<std::uint32_t>(load_le(&bytes[16 + len], 4));
  const std::uint32_t actual_crc = crc32(&bytes[16], len);
  if (stored_crc != actual_crc) throw IoError("payload CRC mismatch");
  payload_.assign(bytes.begin() + 16, bytes.begin() + 16 + static_cast<long>(len));
}

Reader Reader::from_file(const std::string& path) {
  if (auto hit = BPROM_FAILPOINT("io.read.open")) {
    (void)hit;
    throw IoError("injected open failure: " + path, ErrorKind::kIo);
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    std::error_code ec;
    const auto kind = std::filesystem::exists(path, ec) ? ErrorKind::kIo
                                                        : ErrorKind::kNotFound;
    throw IoError("cannot open for reading: " + path, kind);
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw IoError("short read: " + path, ErrorKind::kIo);
  if (auto hit = BPROM_FAILPOINT("io.read.short")) {
    // Hand the parser a truncated view — it must produce a typed kCorrupt,
    // exactly as if the file itself had been torn.
    if (hit.action == util::FailpointAction::kShort &&
        bytes.size() > hit.arg) {
      bytes.resize(hit.arg);
    } else {
      throw IoError("injected read failure: " + path, ErrorKind::kIo);
    }
  }
  return Reader(std::move(bytes));
}

void Reader::need(std::size_t n) const {
  // Written as a subtraction so a huge `n` cannot wrap the comparison.
  if (n > payload_.size() - pos_) {
    throw IoError("payload truncated: need " + std::to_string(n) +
                  " bytes at offset " + std::to_string(pos_));
  }
}

std::uint8_t Reader::read_u8() {
  need(1);
  return payload_[pos_++];
}

std::uint32_t Reader::read_u32() {
  need(4);
  const auto v = static_cast<std::uint32_t>(load_le(&payload_[pos_], 4));
  pos_ += 4;
  return v;
}

std::uint64_t Reader::read_u64() {
  need(8);
  const std::uint64_t v = load_le(&payload_[pos_], 8);
  pos_ += 8;
  return v;
}

std::int32_t Reader::read_i32() {
  return static_cast<std::int32_t>(read_u32());
}

float Reader::read_f32() {
  const std::uint32_t bits = read_u32();
  float v = 0.0F;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double Reader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::read_string() {
  const std::uint64_t n = read_u64();
  need(n);
  std::string s(payload_.begin() + static_cast<long>(pos_),
                payload_.begin() + static_cast<long>(pos_ + n));
  pos_ += n;
  return s;
}

void Reader::expect_tag(const char (&tag)[5]) {
  need(4);
  if (!std::equal(tag, tag + 4, payload_.begin() + static_cast<long>(pos_))) {
    throw IoError(std::string("chunk tag mismatch: expected '") + tag + "'");
  }
  pos_ += 4;
}

std::uint64_t Reader::read_count(std::size_t elem_size) {
  const std::uint64_t n = read_u64();
  // Guard the multiply so a corrupt length prefix cannot overflow or
  // trigger a huge allocation before the bounds check fires.
  if (n > remaining() / elem_size) {
    throw IoError("payload truncated: element count " + std::to_string(n) +
                  " exceeds remaining bytes");
  }
  return n;
}

void Reader::version(std::uint32_t& v, std::uint32_t supported,
                     const char* what) {
  v = read_u32();
  // A newer struct version carries fields this build cannot parse: refuse
  // with the kind the façade maps to kVersionMismatch.
  if (v == 0 || v > supported) {
    throw IoError(std::string(what) + " struct_version " + std::to_string(v) +
                      " is not supported by this build (max " +
                      std::to_string(supported) + ")",
                  ErrorKind::kVersionMismatch);
  }
}

std::uint32_t Reader::read_enum(std::uint32_t last, const char* what) {
  const std::uint32_t raw = read_u32();
  if (raw > last) {
    throw IoError(std::string("unknown ") + what + " " + std::to_string(raw));
  }
  return raw;
}

}  // namespace bprom::io
