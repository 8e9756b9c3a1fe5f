// Byte-level helpers for tests that damage graph files (graph/record_io.h)
// on purpose: find the frames, rewrite one varint field, and re-stamp every
// frame CRC plus the trailer's frame chain, so that an edited file gets past
// the checksums and reaches the decoder's structural checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"

namespace horus::testing {

inline constexpr std::size_t kGraphMagicBytes = 8;

/// One whole frame inside a file: `start` is the offset of its length
/// field; the payload (kind byte first) follows at start + 4.
struct FrameSpan {
  std::size_t start = 0;
  std::size_t len = 0;
  char kind = 0;

  [[nodiscard]] std::size_t payload() const { return start + 4; }
  [[nodiscard]] std::size_t end() const { return start + 4 + len + 4; }
};

inline std::uint32_t le_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

inline void set_le_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

/// The whole frames after the magic, up to the first one the bytes do not
/// hold completely.
inline std::vector<FrameSpan> frames_of(std::string_view bytes) {
  std::vector<FrameSpan> out;
  std::size_t at = kGraphMagicBytes;
  while (at + 4 <= bytes.size()) {
    const std::size_t len = le_u32(bytes, at);
    if (len == 0 || len > bytes.size() - at - 4 ||
        bytes.size() - at - 4 - len < 4) {
      break;
    }
    out.push_back(FrameSpan{at, len, bytes[at + 4]});
    at += 4 + len + 4;
  }
  return out;
}

/// Re-stamps every whole frame's CRC and, in a trailer frame ('T'), the
/// chained CRC over the earlier frames' CRCs (its last four payload bytes).
inline std::string restamp(std::string bytes) {
  std::uint32_t chain = crc32_init();
  for (const FrameSpan& f : frames_of(bytes)) {
    if (f.kind == 'T' && f.len >= 5) {
      set_le_u32(bytes, f.payload() + f.len - 4, chain);
    }
    const std::uint32_t crc =
        crc32(std::string_view(bytes).substr(f.payload(), f.len));
    set_le_u32(bytes, f.payload() + f.len, crc);
    if (f.kind != 'T') {
      std::string crc_bytes(4, '\0');
      set_le_u32(crc_bytes, 0, crc);
      chain = crc32_update(chain, crc_bytes);
    }
  }
  return bytes;
}

inline std::string varint_bytes(std::uint64_t v) {
  std::string out;
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
  return out;
}

/// Length of the varint starting at `at`.
inline std::size_t varint_len(std::string_view bytes, std::size_t at) {
  std::size_t n = 1;
  while ((static_cast<unsigned char>(bytes[at + n - 1]) & 0x80u) != 0) ++n;
  return n;
}

inline std::uint64_t varint_at(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < varint_len(bytes, at); ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]) &
                                    0x7Fu)
         << (7 * i);
  }
  return v;
}

/// Offset of the `index`-th varint after a frame's kind byte (the header
/// frame: 0 file kind, 1 segment, 2 first node, 3 count, 4 edge total; an
/// adjacency frame: 0 the first out-list's length, 1 its first peer).
inline std::size_t field_offset(std::string_view bytes, const FrameSpan& f,
                                int index) {
  std::size_t at = f.payload() + 1;
  for (int i = 0; i < index; ++i) at += varint_len(bytes, at);
  return at;
}

/// Replaces the varint at `at` (inside frame `f`) with `value`, fixes the
/// frame's length field, and re-stamps the file.
inline std::string with_varint(std::string bytes, const FrameSpan& f,
                               std::size_t at, std::uint64_t value) {
  const std::size_t old_len = varint_len(bytes, at);
  const std::string repl = varint_bytes(value);
  bytes.replace(at, old_len, repl);
  set_le_u32(bytes, f.start,
             static_cast<std::uint32_t>(f.len - old_len + repl.size()));
  return restamp(std::move(bytes));
}

/// The first frame of `kind`, or a zero FrameSpan.
inline FrameSpan first_frame(std::string_view bytes, char kind) {
  for (const FrameSpan& f : frames_of(bytes)) {
    if (f.kind == kind) return f;
  }
  return {};
}

}  // namespace horus::testing
