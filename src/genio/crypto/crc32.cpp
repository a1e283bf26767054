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
//   K1, K2  fold a 128-bit lane 2048 bits forward (the 16-lane ZMM stride):
//           x^2080 and x^2016 mod P;
//   R1, R2  fold it 512 bits forward (four-lane stride);
//   R3, R4  fold it 128 bits forward (lane into lane);
//   R5      folds 64 bits down to 32 + 32;
//   P', mu  the polynomial and its quotient for the Barrett reduction.
constexpr std::uint64_t kK1 = 0x11542778a;
constexpr std::uint64_t kK2 = 0x1322d1430;
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

// The CRC state after four lanes of 64 consecutive bytes, x0 first, and
// then `n` more bytes at `p` (a multiple of 16): the lanes fold into one,
// which takes in the rest 16 bytes at a time and is reduced to 32 bits.
// Always inlined, so the ZMM fold runs it VEX-encoded: a call into legacy
// SSE code with the ZMM upper halves dirty pays a merge on every
// instruction.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline std::uint32_t crc32_fold_finish(
    __m128i x0, __m128i x1, __m128i x2, __m128i x3, const std::uint8_t* p, std::size_t n) {
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
  return crc32_fold_finish(x0, x1, x2, x3, p, n);
}

// fold() on each of a ZMM register's four lanes (0x96: a three-way XOR).
__attribute__((target("vpclmulqdq,avx512f"))) inline __m512i fold_z(__m512i x, __m512i k,
                                                                    __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), next, 0x96);
}

// crc32_fold on VPCLMULQDQ: four ZMM registers take in 256 bytes per pass
// (K1, K2) and fold into one (R1, R2), which takes in the rest 64 bytes at
// a time before its lanes go to crc32_fold_finish. n is a multiple of 16
// and at least 256.
__attribute__((target("vpclmulqdq,avx512f,pclmul,sse4.1"))) std::uint32_t crc32_fold_vpclmul(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  __m512i x[4];
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) x[i] = _mm512_loadu_si512(p + 64 * i);
  x[0] = _mm512_xor_si512(x[0], _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(crc))));
  p += 256;
  n -= 256;

  const __m512i kk = _mm512_maskz_broadcast_i32x4(
      0xffff, _mm_set_epi64x(static_cast<long long>(kK2), static_cast<long long>(kK1)));
  for (; n >= 256; p += 256, n -= 256) {
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) x[i] = fold_z(x[i], kk, _mm512_loadu_si512(p + 64 * i));
  }
  const __m512i kr = _mm512_maskz_broadcast_i32x4(
      0xffff, _mm_set_epi64x(static_cast<long long>(kR2), static_cast<long long>(kR1)));
  __m512i acc = fold_z(x[0], kr, x[1]);
  acc = fold_z(acc, kr, x[2]);
  acc = fold_z(acc, kr, x[3]);
  for (; n >= 64; p += 64, n -= 64) acc = fold_z(acc, kr, _mm512_loadu_si512(p));
  return crc32_fold_finish(_mm512_maskz_extracti32x4_epi32(0xf, acc, 0),
                           _mm512_maskz_extracti32x4_epi32(0xf, acc, 1),
                           _mm512_maskz_extracti32x4_epi32(0xf, acc, 2),
                           _mm512_maskz_extracti32x4_epi32(0xf, acc, 3), p, n);
}
#endif

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, common::BytesView data,
                           DataplaneKernel kernel) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (kernel != DataplaneKernel::kPortable) {
    if (!supports_dataplane_kernel(kernel)) {
      throw std::invalid_argument("CRC-32: this CPU lacks the requested data-plane backend");
    }
#if defined(__x86_64__)
    if (n >= 64) {
      const std::size_t bulk = n & ~std::size_t{15};
      state = kernel == DataplaneKernel::kVaesAvx512 && bulk >= 256
                  ? crc32_fold_vpclmul(state, p, bulk)
                  : crc32_fold(state, p, bulk);
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
