// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for the integrity
// checks of graph files, clock tables and spill files. Header-only; the
// slicing-by-8 tables are built once per process.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace horus {

namespace detail {

/// Slicing-by-8 tables: tables[0] is the classic byte table; tables[k][b]
/// advances the CRC of byte b by k more zero bytes, so the loop below folds
/// eight input bytes per step.
inline const std::array<std::array<std::uint32_t, 256>, 8>& crc32_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// Streams `data` into a running CRC. Start from crc32_init(), finish with
/// crc32_final().
[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc,
                                                std::string_view data) {
  const auto& t = detail::crc32_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

[[nodiscard]] inline constexpr std::uint32_t crc32_init() noexcept {
  return 0xFFFFFFFFu;
}

[[nodiscard]] inline constexpr std::uint32_t crc32_final(
    std::uint32_t crc) noexcept {
  return crc ^ 0xFFFFFFFFu;
}

/// One-shot convenience.
[[nodiscard]] inline std::uint32_t crc32(std::string_view data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

}  // namespace horus
