#include "genio/crypto/crc32.hpp"

#include <array>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

std::uint32_t crc32_slicing(std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  const auto& t = sliced().slice;
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

#if defined(__x86_64__)
// PCLMULQDQ folding after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), with the
// bit-reflected constants for 0xEDB88320: each is x^k mod P for the
// distance k a fold moves data, reflected into 33 bits.
//   R1, R2  fold a 128-bit lane 512 bits forward (four-lane stride);
//   R3, R4  fold it 128 bits forward (lane into lane);
//   R5      folds 64 bits down to 32 + 32;
//   P', mu  the polynomial and its quotient for the Barrett reduction.
constexpr std::uint64_t kR1 = 0x154442bd4;
constexpr std::uint64_t kR2 = 0x1c6e41596;
constexpr std::uint64_t kR3 = 0x1751997d0;
constexpr std::uint64_t kR4 = 0x0ccaa009e;
constexpr std::uint64_t kR5 = 0x163cd6124;
constexpr std::uint64_t kPolyP = 0x1db710641;
constexpr std::uint64_t kPolyMu = 0x1f7011641;

inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x * x^k folded into the data lane `next`: the low half moves by one
// constant and the high half by the other.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// CRC state after `n` bytes at `p`; n is a multiple of 16 and at least 64.
// The incoming state is XORed into the first 32 bits, as the table
// algorithms XOR it into each byte they consume.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(std::uint32_t crc,
                                                                  const std::uint8_t* p,
                                                                  std::size_t n) {
  __m128i x0 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  n -= 64;

  const __m128i k12 = _mm_set_epi64x(static_cast<long long>(kR2), static_cast<long long>(kR1));
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k12, load128(p));
    x1 = fold(x1, k12, load128(p + 16));
    x2 = fold(x2, k12, load128(p + 32));
    x3 = fold(x3, k12, load128(p + 48));
  }

  const __m128i k34 = _mm_set_epi64x(static_cast<long long>(kR4), static_cast<long long>(kR3));
  x0 = fold(x0, k34, x1);
  x0 = fold(x0, k34, x2);
  x0 = fold(x0, k34, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k34, load128(p));

  // 128 -> 64 bits: the low half times R4 into the high half.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k34, 0x10));
  // 64 -> 32 + 32 bits: the low 32 times R5 into the rest.
  const __m128i k5 = _mm_set_epi64x(0, static_cast<long long>(kR5));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00));
  // Barrett: q = (low 32 * mu) mod x^32, crc = (x ^ q * P) bits 32..63.
  const __m128i poly = _mm_set_epi64x(static_cast<long long>(kPolyMu),
                                      static_cast<long long>(kPolyP));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}
#endif

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, common::BytesView data,
                           DataplaneKernel kernel) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (kernel == DataplaneKernel::kAesPclmul) {
    if (!supports_dataplane_kernel(kernel)) {
      throw std::invalid_argument("CRC-32: this CPU has no PCLMULQDQ");
    }
#if defined(__x86_64__)
    if (n >= 64) {
      const std::size_t bulk = n & ~std::size_t{15};
      state = crc32_fold(state, p, bulk);
      p += bulk;
      n -= bulk;
    }
#endif
  }
  return crc32_slicing(state, p, n);
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
