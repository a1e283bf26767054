#include "genio/crypto/crc32.hpp"

#include <array>

namespace genio::crypto {

namespace {

constexpr std::uint32_t kPoly = 0xedb88320u;  // reflected 802.3 polynomial

std::array<std::uint32_t, 256> build_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

// Slicing-by-8: slice[j][b] is the CRC contribution of byte b seen j+1
// positions ahead of the current state, so eight bytes fold in with eight
// independent lookups per step instead of eight dependent ones.
struct SlicedTables {
  std::array<std::array<std::uint32_t, 256>, 8> slice;

  SlicedTables() {
    slice[0] = build_table();
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t c = slice[0][b];
      for (int j = 1; j < 8; ++j) {
        c = slice[0][c & 0xff] ^ (c >> 8);
        slice[static_cast<std::size_t>(j)][b] = c;
      }
    }
  }
};

const SlicedTables& sliced() {
  static const SlicedTables kTables;  // lazily built, immutable thereafter
  return kTables;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, common::BytesView data) {
  const auto& t = sliced().slice;
  std::uint32_t crc = state;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    // Assembling the low word byte-wise keeps the fold endian-agnostic.
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][crc & 0xff] ^ t[6][(crc >> 8) & 0xff] ^ t[5][(crc >> 16) & 0xff] ^
          t[4][(crc >> 24) & 0xff] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^
          t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
    ++p;
    --n;
  }
  return crc;
}

std::uint32_t crc32(common::BytesView data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

std::uint32_t crc32_reference(common::BytesView data) {
  static const auto kTable = build_table();
  std::uint32_t crc = 0xffffffffu;
  for (std::uint8_t byte : data) {
    crc = kTable[(crc ^ byte) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace genio::crypto
