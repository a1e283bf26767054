#include "genio/crypto/gcm.hpp"

#include <algorithm>
#include <cstring>

#include "genio/crypto/simd.hpp"

namespace genio::crypto {

// Shoup tables of B*H^p for every byte value B, split into 64-bit halves
// (hi = bytes 0..7 big-endian, lo = bytes 8..15) so one block multiply is
// 16 lookups folded with two-word shifts. Built from 8 doublings plus
// subset XORs per power — cheap enough to rebuild on every rekey. The
// key-independent byte-reduction table is a shared process-wide static.
struct GhashTables {
  std::array<std::array<std::uint64_t, 256>, 4> hi{};
  std::array<std::array<std::uint64_t, 256>, 4> lo{};
};

namespace {

// Multiplication in GF(2^128) with the GCM polynomial, bitwise (the
// reference oracle; GcmContext carries the table-driven fast path).
AesBlock gf_mult(const AesBlock& x, const AesBlock& y) {
  AesBlock z{};
  AesBlock v = y;
  for (int i = 0; i < 128; ++i) {
    const int byte = i / 8;
    const int bit = 7 - (i % 8);
    if ((x[static_cast<std::size_t>(byte)] >> bit) & 1) {
      for (int j = 0; j < 16; ++j) z[static_cast<std::size_t>(j)] ^= v[static_cast<std::size_t>(j)];
    }
    // v = v >> 1 with conditional reduction by R = 0xe1 || 0^120.
    const bool lsb = (v[15] & 1) != 0;
    for (int j = 15; j > 0; --j) {
      v[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
          (v[static_cast<std::size_t>(j)] >> 1) |
          ((v[static_cast<std::size_t>(j - 1)] & 1) << 7));
    }
    v[0] >>= 1;
    if (lsb) v[0] ^= 0xe1;
  }
  return z;
}

void ghash_update(AesBlock& y, const AesBlock& h, BytesView data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    AesBlock block{};
    const std::size_t n = std::min<std::size_t>(16, data.size() - offset);
    std::memcpy(block.data(), data.data() + offset, n);
    for (int i = 0; i < 16; ++i) {
      y[static_cast<std::size_t>(i)] ^= block[static_cast<std::size_t>(i)];
    }
    y = gf_mult(y, h);
    offset += n;
  }
}

AesBlock length_block(std::uint64_t aad_bits, std::uint64_t ct_bits) {
  AesBlock block{};
  for (int i = 0; i < 8; ++i) {
    block[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(aad_bits >> (56 - 8 * i));
    block[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(ct_bits >> (56 - 8 * i));
  }
  return block;
}

AesBlock j0_from_nonce(const GcmNonce& nonce) {
  AesBlock j0{};
  std::memcpy(j0.data(), nonce.data(), 12);
  j0[15] = 1;
  return j0;
}

AesBlock inc32(AesBlock block) {
  for (int i = 15; i >= 12; --i) {
    if (++block[static_cast<std::size_t>(i)] != 0) break;
  }
  return block;
}

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

// v = v * x in GF(2^128): shift the byte string down one bit, reducing by
// R = 0xe1 || 0^120 when the x^127 coefficient falls off.
AesBlock mul_x(AesBlock v) {
  const bool lsb = (v[15] & 1) != 0;
  for (int j = 15; j > 0; --j) {
    v[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
        (v[static_cast<std::size_t>(j)] >> 1) |
        ((v[static_cast<std::size_t>(j - 1)] & 1) << 7));
  }
  v[0] >>= 1;
  if (lsb) v[0] ^= 0xe1;
  return v;
}

// Reduction table for shifting a block down one byte: the byte b pushed
// past x^127 holds coefficients x^120..x^127, and b * x^128 mod g(x) has
// degree <= 14 — it lands entirely in the top 16 bits of the high word.
// Key-independent, so built once for the whole process.
const std::array<std::uint16_t, 256>& byte_reduction_table() {
  static const std::array<std::uint16_t, 256> kTable = [] {
    std::array<std::uint16_t, 256> table{};
    for (unsigned b = 0; b < 256; ++b) {
      AesBlock v{};
      v[15] = static_cast<std::uint8_t>(b);
      for (int step = 0; step < 8; ++step) v = mul_x(v);
      table[b] = static_cast<std::uint16_t>((v[0] << 8) | v[1]);
    }
    return table;
  }();
  return kTable;
}

// Shoup table for one hash-subkey power: entry B is the field product B*Hp,
// where byte value B encodes the degree-<8 polynomial occupying bit
// positions x^0..x^7 (GCM's reflected bit order: x^0 is the MSB of byte 0).
// Single-bit bytes come from repeated doubling of Hp (0x80 encodes x^0, so
// T[0x80] = Hp and T[0x80 >> j] = Hp * x^j); every other entry is the XOR
// of its lowest set bit's entry and the rest — 8 shifts + 248 two-word
// XORs per power.
void build_shoup_table(const AesBlock& hp, std::array<std::uint64_t, 256>& hi,
                       std::array<std::uint64_t, 256>& lo) {
  std::array<AesBlock, 256> t{};
  t[0x80] = hp;
  for (int j = 1; j < 8; ++j) {
    t[static_cast<std::size_t>(0x80 >> j)] = mul_x(t[static_cast<std::size_t>(0x80 >> (j - 1))]);
  }
  for (unsigned b = 2; b < 256; ++b) {
    const unsigned rest = b & (b - 1);
    if (rest == 0) continue;  // power of two: already set by the doubling chain
    const unsigned low = b & (~b + 1);
    for (int i = 0; i < 16; ++i) {
      t[b][static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
          t[rest][static_cast<std::size_t>(i)] ^ t[low][static_cast<std::size_t>(i)]);
    }
  }
  for (unsigned b = 0; b < 256; ++b) {
    hi[b] = load_be64(t[b].data());
    lo[b] = load_be64(t[b].data() + 8);
  }
}

// One Shoup multiply of a 16-byte block against a precomputed power table,
// XOR-accumulated into (zh, zl). Horner over the 16 bytes: each step is a
// byte-shift (with table-driven reduction) plus one lookup.
inline void shoup_mult_acc(const std::array<std::uint64_t, 256>& hi,
                           const std::array<std::uint64_t, 256>& lo,
                           const std::uint8_t* x, std::uint64_t& zh,
                           std::uint64_t& zl) {
  const auto& reduce = byte_reduction_table();
  std::uint64_t ah = 0;
  std::uint64_t al = 0;
  for (int k = 15; k >= 0; --k) {
    const std::uint8_t overflow = static_cast<std::uint8_t>(al & 0xff);
    al = (al >> 8) | (ah << 56);
    ah = (ah >> 8) ^ (static_cast<std::uint64_t>(reduce[overflow]) << 48);
    ah ^= hi[x[k]];
    al ^= lo[x[k]];
  }
  zh ^= ah;
  zl ^= al;
}

// One Shoup multiply by H^power (1..4).
AesBlock shoup_mult(const GhashTables& t, int power, const AesBlock& x) {
  const auto p = static_cast<std::size_t>(power - 1);
  std::uint64_t zh = 0;
  std::uint64_t zl = 0;
  shoup_mult_acc(t.hi[p], t.lo[p], x.data(), zh, zl);
  AesBlock z;
  store_be64(z.data(), zh);
  store_be64(z.data() + 8, zl);
  return z;
}

// Portable GHASH: y absorbs `data`, zero-padded to whole blocks.
void ghash_fold_shoup(const GhashTables& t, AesBlock& y, BytesView data) {
  std::size_t offset = 0;
  // Aggregated fold, four blocks per reduction:
  //   y' = (y ^ B0)*H^4 ^ B1*H^3 ^ B2*H^2 ^ B3*H
  // — algebraically identical to four serial Horner steps, but the four
  // multiplies are independent and fill the pipeline.
  while (data.size() - offset >= 64) {
    const std::uint8_t* p = data.data() + offset;
    std::uint8_t b0[16];
    for (int i = 0; i < 16; ++i) b0[i] = static_cast<std::uint8_t>(y[static_cast<std::size_t>(i)] ^ p[i]);
    std::uint64_t zh = 0;
    std::uint64_t zl = 0;
    shoup_mult_acc(t.hi[3], t.lo[3], b0, zh, zl);
    shoup_mult_acc(t.hi[2], t.lo[2], p + 16, zh, zl);
    shoup_mult_acc(t.hi[1], t.lo[1], p + 32, zh, zl);
    shoup_mult_acc(t.hi[0], t.lo[0], p + 48, zh, zl);
    store_be64(y.data(), zh);
    store_be64(y.data() + 8, zl);
    offset += 64;
  }
  // Serial tail (full blocks plus one zero-padded partial).
  while (offset < data.size()) {
    const std::size_t n = std::min<std::size_t>(16, data.size() - offset);
    for (std::size_t i = 0; i < n; ++i) y[i] ^= data[offset + i];
    y = shoup_mult(t, 1, y);
    offset += n;
  }
}

#if defined(__x86_64__)
// ------------------------------------------------------ PCLMULQDQ GHASH
// Gueron and Kounavis, "Intel Carry-Less Multiplication Instruction and its
// Usage for Computing the GCM Mode". Reversing a block's bytes turns GCM's
// bit order (x^0 is the MSB of byte 0) into a 128-bit integer whose bit
// 127 - i is the x^i coefficient. The carry-less product of two such
// integers is the 255-bit product with every coefficient one place low: it
// reads as a * b * x. The hardware backends therefore store each power of H
// reflected and twisted, as H^p * x^-1 (as the stitched GCM kernels in
// OpenSSL and Linux do), built once per context: a product against a
// stored power is a * H^p with nothing to shift, and it reduces modulo
// g = x^128 + x^7 + x^2 + x + 1 with two carry-less multiplies by the
// reduction constant. Every fold on both backends reduces this way.
//
// These are target-attributed functions rather than lambdas: a lambda in a
// target("...") function does not inherit the target, and GCC 12 then
// refuses to inline the intrinsics into it.

__attribute__((target("ssse3"))) inline __m128i reflect(__m128i x) {
  const __m128i reverse = _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  return _mm_shuffle_epi8(x, reverse);
}

__attribute__((target("ssse3"))) inline __m128i load_reflected(const std::uint8_t* p) {
  return reflect(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("ssse3"))) inline void store_reflected(std::uint8_t* p, __m128i x) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), reflect(x));
}

__attribute__((target("sse2"))) inline __m128i load_block(const AesBlock& block) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(block.data()));
}

// v = v * x^-1 in GF(2^128), in GCM byte order: the inverse of mul_x. The
// byte string shifts up one bit, and x^-1 = x^127 + x^6 + x + 1
// (0xc2 || 0^112 || 0x01) is added when the x^0 coefficient falls off.
AesBlock div_x(AesBlock v) {
  const bool msb = (v[0] & 0x80) != 0;
  for (std::size_t j = 0; j < 15; ++j) {
    v[j] = static_cast<std::uint8_t>((v[j] << 1) | (v[j + 1] >> 7));
  }
  v[15] = static_cast<std::uint8_t>(v[15] << 1);
  if (msb) {
    v[0] ^= 0xc2;
    v[15] ^= 0x01;
  }
  return v;
}

// Unreduced 256-bit product, schoolbook: lo = a0*b0, hi = a1*b1 and
// mid = a0*b1 ^ a1*b0 (straddling bit 64). Products of one fold XOR into
// the same three accumulators and share one reduction.
struct Wide {
  __m128i lo, mid, hi;
};

__attribute__((target("pclmul"))) inline void clmul_acc(Wide& acc, __m128i a, __m128i b) {
  acc.lo = _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(a, b, 0x00));
  acc.hi = _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(a, b, 0x11));
  acc.mid = _mm_xor_si128(acc.mid, _mm_clmulepi64_si128(a, b, 0x01));
  acc.mid = _mm_xor_si128(acc.mid, _mm_clmulepi64_si128(a, b, 0x10));
}

inline Wide wide_zero() {
  return {_mm_setzero_si128(), _mm_setzero_si128(), _mm_setzero_si128()};
}

// The reduction constant's high word, 0xc2 || 0^56: g's x, x^2 and x^7
// terms, reflected. reduce_lanes below is the same reduction per ZMM lane.
constexpr long long kPolyHigh = static_cast<long long>(0xc200000000000000ull);

// A product against twisted powers, reduced to 128 bits: the low half folds
// into the middle and the middle into the high half, each through one
// multiply by the reduction constant's high word.
__attribute__((target("pclmul,sse2"))) inline __m128i reduce(const Wide& w) {
  const __m128i poly = _mm_set_epi64x(kPolyHigh, 0);
  const __m128i mid = _mm_xor_si128(_mm_xor_si128(w.mid, _mm_clmulepi64_si128(w.lo, poly, 0x10)),
                                    _mm_shuffle_epi32(w.lo, 0x4e));
  return _mm_xor_si128(_mm_xor_si128(w.hi, _mm_clmulepi64_si128(mid, poly, 0x10)),
                       _mm_shuffle_epi32(mid, 0x4e));
}

// a * b * x: a * B for a twisted power b = B * x^-1.
__attribute__((target("pclmul"))) inline __m128i gf_mult_clmul(__m128i a, __m128i b) {
  Wide w = wide_zero();
  clmul_acc(w, a, b);
  return reduce(w);
}

// The blocks `bytes` take, zero-padded.
constexpr std::size_t blocks_of(std::size_t bytes) { return (bytes + 15) / 16; }

// The k < 8 bytes at `p` as the low bytes of a word, zero above: one load
// per set bit of k, so nothing past p + k is read.
inline std::uint64_t load_tail(const std::uint8_t* p, std::size_t k) {
  std::uint64_t v = 0;
  std::size_t at = 0;
  if (k & 4) {
    std::uint32_t w;
    std::memcpy(&w, p, 4);
    v = w;
    at = 4;
  }
  if (k & 2) {
    std::uint16_t w;
    std::memcpy(&w, p + at, 2);
    v |= std::uint64_t{w} << (8 * at);
    at += 2;
  }
  if (k & 1) v |= std::uint64_t{p[at]} << (8 * at);
  return v;
}

// Block j of the `n` bytes at `p`, reflected and zero-padded. A last,
// partial block is put together in registers: storing it to memory in
// pieces and loading it back whole stalls, because the load cannot be
// forwarded from several stores (a 9-byte fold took three to four times
// as long as a 16-byte one).
__attribute__((target("ssse3"))) inline __m128i load_padded(const std::uint8_t* p, std::size_t n,
                                                            std::size_t j) {
  const std::uint8_t* src = p + 16 * j;
  if (16 * j + 16 <= n) return load_reflected(src);
  const std::size_t k = n - 16 * j;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  if (k >= 8) {
    std::memcpy(&lo, src, 8);
    hi = load_tail(src + 8, k - 8);
  } else {
    lo = load_tail(src, k);
  }
  return reflect(_mm_set_epi64x(static_cast<long long>(hi), static_cast<long long>(lo)));
}

// The products of the `n` > 0 bytes at `p`, zero-padded to whole blocks,
// with y XORed into the first block: block j times h_group[j].
__attribute__((target("pclmul,ssse3"))) inline void fold_blocks(Wide& w, __m128i y,
                                                                const AesBlock* h_group,
                                                                const std::uint8_t* p,
                                                                std::size_t n) {
  clmul_acc(w, _mm_xor_si128(y, load_padded(p, n, 0)), load_block(h_group[0]));
  for (std::size_t j = 1; 16 * j < n; ++j) {
    clmul_acc(w, load_padded(p, n, j), load_block(h_group[j]));
  }
}

// kAesPclmul's pass fold: y absorbs the eight blocks at `p` against
// H^8..H^1 (`h_desc`, highest first) under one reduction.
__attribute__((target("pclmul,ssse3"))) inline __m128i pass_clmul(__m128i y,
                                                                  const AesBlock* h_desc,
                                                                  const std::uint8_t* p) {
  Wide w = wide_zero();
  fold_blocks(w, y, h_desc + 8, p, 128);
  return reduce(w);
}

// y absorbs `n` bytes at `p`, zero-padded to whole blocks: whole passes of
// eight blocks, then a last group of k < 8 blocks against H^k..H^1.
__attribute__((target("pclmul,ssse3"))) __m128i ghash_clmul(__m128i y, const AesBlock* h_desc,
                                                            const std::uint8_t* p,
                                                            std::size_t n) {
  for (; n >= 128; p += 128, n -= 128) y = pass_clmul(y, h_desc, p);
  if (n == 0) return y;
  Wide w = wide_zero();
  fold_blocks(w, y, h_desc + (16 - blocks_of(n)), p, n);
  return reduce(w);
}

// H^1..H^count, twisted and reflected, into h_desc[16 - p] = H^p * x^-1:
// H is twisted once, and each next power is one product against it.
__attribute__((target("pclmul,ssse3"))) void twisted_powers(const AesBlock& h, AesBlock* h_desc,
                                                            std::size_t count) {
  const __m128i h1 = load_reflected(div_x(h).data());
  __m128i hp = h1;
  for (std::size_t p = 1; p <= count; ++p) {
    if (p > 1) hp = gf_mult_clmul(hp, h1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(h_desc[16 - p].data()), hp);
  }
}

// GcmContext::ghash on kAesPclmul.
__attribute__((target("pclmul,ssse3"))) AesBlock ghash_aesni(const AesBlock* h_desc,
                                                             BytesView data) {
  AesBlock out;
  store_reflected(out.data(), ghash_clmul(_mm_setzero_si128(), h_desc, data.data(), data.size()));
  return out;
}

// -------------------------------------------------- VPCLMULQDQ GHASH
// Sixteen blocks per reduction, four per ZMM register. A pass multiplies
// block j by H^(16-j): with the powers stored highest first, register r's
// powers are the four stored at 4r, and a k-block group's are the k stored
// from 16 - k. Each 128-bit lane holds the XMM kernel's reflected block, and
// each lane's product reduces in place (reduce_lanes, the XMM reduce() per
// lane), so only the reduced sum crosses lanes; the fused kernel's last
// group sums its lanes unreduced instead (sum_lanes), so that the length
// block's XMM product shares their reduction. The unmasked-intrinsic
// warning noted in simd.hpp applies to _mm512_extracti64x4_epi64,
// _mm512_castsi512_si128 and _mm512_shuffle_epi32 too.

struct WideZ {
  __m512i lo, mid, hi;
};

__attribute__((target("avx512f"))) inline WideZ wide_zero_z() {
  return {_mm512_setzero_si512(), _mm512_setzero_si512(), _mm512_setzero_si512()};
}

__attribute__((target("vpclmulqdq,avx512f"))) inline void clmul_acc_z(WideZ& acc, __m512i a,
                                                                       __m512i b) {
  acc.lo = _mm512_xor_si512(acc.lo, _mm512_clmulepi64_epi128(a, b, 0x00));
  acc.hi = _mm512_xor_si512(acc.hi, _mm512_clmulepi64_epi128(a, b, 0x11));
  acc.mid = _mm512_xor_si512(acc.mid, _mm512_clmulepi64_epi128(a, b, 0x01));
  acc.mid = _mm512_xor_si512(acc.mid, _mm512_clmulepi64_epi128(a, b, 0x10));
}

// XOR of a register's four lanes.
__attribute__((target("avx512f"))) inline __m128i xor_lanes(__m512i x) {
  const __m256i half = _mm256_xor_si256(_mm512_maskz_extracti64x4_epi64(0xf, x, 0),
                                        _mm512_maskz_extracti64x4_epi64(0xf, x, 1));
  return _mm_xor_si128(_mm256_extracti128_si256(half, 0), _mm256_extracti128_si256(half, 1));
}

// The lanes' products summed into one unreduced XMM product.
__attribute__((target("avx512f"))) inline Wide sum_lanes(const WideZ& w) {
  return {xor_lanes(w.lo), xor_lanes(w.mid), xor_lanes(w.hi)};
}

// reduce() on each lane.
__attribute__((target("vpclmulqdq,avx512f"))) inline __m512i reduce_lanes(const WideZ& w) {
  const __m512i poly = _mm512_set_epi64(kPolyHigh, 0, kPolyHigh, 0, kPolyHigh, 0, kPolyHigh, 0);
  constexpr auto kSwapHalves = static_cast<_MM_PERM_ENUM>(0x4e);
  const __m512i mid =
      _mm512_ternarylogic_epi64(w.mid, _mm512_clmulepi64_epi128(w.lo, poly, 0x10),
                                _mm512_maskz_shuffle_epi32(0xffff, w.lo, kSwapHalves), 0x96);
  return _mm512_ternarylogic_epi64(w.hi, _mm512_clmulepi64_epi128(mid, poly, 0x10),
                                   _mm512_maskz_shuffle_epi32(0xffff, mid, kSwapHalves), 0x96);
}

__attribute__((target("avx512f"))) inline void load_pass(const std::uint8_t* p, __m512i* d) {
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) d[i] = _mm512_loadu_si512(p + 64 * i);
}

// kVaesAvx512's pass fold: y absorbs one sixteen-block pass held in `d` as
// loaded, block j times H^(16-j) (`h_desc`, highest first), y in block 0's
// lane.
__attribute__((target("vpclmulqdq,avx512f,avx512bw"))) inline __m128i stitch_pass(
    __m128i y, const __m512i* d, const AesBlock* h_desc) {
  WideZ w = wide_zero_z();
  clmul_acc_z(w,
              _mm512_xor_si512(simd::reverse_lanes(d[0]), _mm512_maskz_broadcast_i32x4(0x000f, y)),
              _mm512_loadu_si512(h_desc[0].data()));
#pragma GCC unroll 3
  for (int r = 1; r < 4; ++r) {
    clmul_acc_z(w, simd::reverse_lanes(d[r]), _mm512_loadu_si512(h_desc[4 * r].data()));
  }
  return xor_lanes(reduce_lanes(w));
}

// The products of a group of `blocks` (1..16) blocks held in `d` as loaded,
// zero past the data, with y XORed into the first: block j times
// h_group[j]. Masked loads read no power past the group's last.
__attribute__((target("vpclmulqdq,avx512f,avx512bw"))) inline void fold_group(
    WideZ& w, __m128i y, const __m512i* d, std::size_t blocks, const AesBlock* h_group) {
  for (std::size_t r = 0; 4 * r < blocks; ++r) {
    const std::size_t lanes = std::min<std::size_t>(4, blocks - 4 * r);
    const auto lane_mask = static_cast<__mmask8>((1u << (2 * lanes)) - 1);
    __m512i x = simd::reverse_lanes(d[r]);
    if (r == 0) x = _mm512_xor_si512(x, _mm512_maskz_broadcast_i32x4(0x000f, y));
    clmul_acc_z(w, x, _mm512_maskz_loadu_epi64(lane_mask, h_group[4 * r].data()));
  }
}

// y absorbs `n` bytes at `p`, zero-padded to whole blocks: whole passes
// through stitch_pass, then a last group of k < 16 blocks against
// H^k..H^1 through masked loads, which read nothing past `n` or past H.
__attribute__((target("vpclmulqdq,avx512f,avx512bw"))) __m128i ghash_vpclmul(
    __m128i y, const AesBlock* h_desc, const std::uint8_t* p, std::size_t n) {
  for (; n >= 256; p += 256, n -= 256) {
    __m512i d[4];
    load_pass(p, d);
    y = stitch_pass(y, d, h_desc);
  }
  if (n == 0) return y;
  const std::size_t blocks = blocks_of(n);
  __m512i d[4];
  for (std::size_t r = 0; 4 * r < blocks; ++r) {
    d[r] = _mm512_maskz_loadu_epi8(simd::byte_mask(n - 64 * r), p + 64 * r);
  }
  WideZ w = wide_zero_z();
  fold_group(w, y, d, blocks, h_desc + (16 - blocks));
  return xor_lanes(reduce_lanes(w));
}

// GcmContext::ghash on kVaesAvx512.
__attribute__((target("vpclmulqdq,avx512f,avx512bw,ssse3"))) AesBlock ghash_vaes(
    const AesBlock* h_desc, BytesView data) {
  AesBlock out;
  store_reflected(out.data(), ghash_vpclmul(_mm_setzero_si128(), h_desc, data.data(), data.size()));
  return out;
}

// ----------------------------------------------------- fused AES-GCM
// One kernel call per seal and per open on the hardware backends, after
// the stitched AES-GCM of Gueron and Krasnov. E_K(J0) runs on an XMM
// aesenc chain of its own, and the AAD is folded first or, in a short
// frame, with the last group; neither waits for the payload's rounds. The
// payload's CTR and GHASH run pass by pass: a seal hashes the previous
// pass's ciphertext while it encrypts the next, and an open hashes and
// decrypts the same pass, so one pass's AES rounds overlap the other's
// carry-less multiplies in the core's out-of-order window. The payload's
// last group folds with the length block under one reduction. An open
// returns the tag with `data` already decrypted; GcmContext restores the
// ciphertext when the tag does not match.

// GCM's length block [len(A)]64 || [len(C)]64, reflected.
inline __m128i length_block_reflected(std::size_t aad_bytes, std::size_t ct_bytes) {
  return _mm_set_epi64x(static_cast<long long>(aad_bytes * 8),
                        static_cast<long long>(ct_bytes * 8));
}

__attribute__((target("ssse3"))) inline GcmTag make_tag(__m128i y, __m128i ek_j0) {
  GcmTag tag;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(tag.data()), _mm_xor_si128(reflect(y), ek_j0));
  return tag;
}

// J0 = nonce || 0^31 || 1, assembled in a register: a 16-byte load of a J0
// the caller has just stored byte by byte would wait for those stores.
__attribute__((target("sse4.1"))) inline __m128i load_j0(const GcmNonce& nonce) {
  std::uint64_t head = 0;
  std::uint32_t tail = 0;
  std::memcpy(&head, nonce.data(), 8);
  std::memcpy(&tail, nonce.data() + 8, 4);
  const __m128i j0 = _mm_insert_epi32(_mm_cvtsi64_si128(static_cast<long long>(head)),
                                      static_cast<int>(tail), 2);
  return _mm_insert_epi32(j0, 0x01000000, 3);  // big-endian 1
}

// The payload counter of a 96-bit nonce: inc32(J0).
constexpr std::uint32_t kFirstCounter = 2;

// kAesPclmul: eight blocks per pass against H^8..H^1 (`h_desc`, highest
// first), through pass_clmul, which ghash_clmul also folds the AAD with.
// The last group of k <= 8 blocks folds against H^(k+1)..H^2 and the
// length block against H; as on kVaesAvx512, a short frame's AAD (a blocks,
// a + k < 8) folds in the same group against H^(a+k+1)..H^(k+2), eight
// blocks leave the length block a reduction of its own, and only a
// partial last block goes through a copy.
template <bool kOpen>
__attribute__((target("aes,pclmul,ssse3,sse4.1"))) GcmTag gcm_aesni(
    const simd::RoundKeys& round_keys, const AesBlock* h_desc, const GcmNonce& nonce,
    std::uint8_t* data, std::size_t n, BytesView aad) {
  __m128i rk[11];
  for (std::size_t r = 0; r < 11; ++r) rk[r] = load_block(round_keys[r]);
  const __m128i prefix = load_j0(nonce);
  const __m128i lens = length_block_reflected(aad.size(), n);
  const bool aad_first = n == 0 || n >= 128 || blocks_of(aad.size()) + blocks_of(n) >= 8;
  __m128i y = _mm_setzero_si128();
  if (aad_first) y = ghash_clmul(y, h_desc, aad.data(), aad.size());

  std::uint32_t ctr = kFirstCounter;
  std::size_t done = 0;
  for (; n - done >= 128; done += 128, ctr += 8) {
    std::uint8_t* p = data + done;
    __m128i ks[8];
    simd::aesni_keystream<8>(rk, prefix, ctr, ks);
    if (kOpen) y = pass_clmul(y, h_desc, p);
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
      __m128i* block = reinterpret_cast<__m128i*>(p + 16 * i);
      _mm_storeu_si128(block, _mm_xor_si128(_mm_loadu_si128(block), ks[i]));
    }
    if (!kOpen && done > 0) y = pass_clmul(y, h_desc, p - 128);
  }
  if (!kOpen && done > 0) y = pass_clmul(y, h_desc, data + done - 128);

  std::uint8_t* p = data + done;
  const std::size_t rest = n - done;
  const std::size_t blocks = blocks_of(rest);
  const std::size_t top = std::min<std::size_t>(blocks + 1, 8);
  const AesBlock* h_group = h_desc + (16 - top);
  Wide w = wide_zero();
  if (blocks > 0) {
    __m128i ks[8];
    if (rest > 64) {
      simd::aesni_keystream<8>(rk, prefix, ctr, ks);
    } else if (rest > 16) {
      simd::aesni_keystream<4>(rk, prefix, ctr, ks);
    } else {
      simd::aesni_keystream<1>(rk, prefix, ctr, ks);
    }
    if (kOpen) fold_blocks(w, y, h_group, p, rest);
    const std::size_t full = rest / 16;
    for (std::size_t j = 0; j < full; ++j) {
      __m128i* block = reinterpret_cast<__m128i*>(p + 16 * j);
      _mm_storeu_si128(block, _mm_xor_si128(_mm_loadu_si128(block), ks[j]));
    }
    if (rest > 16 * full) {
      alignas(16) std::uint8_t part[16] = {};
      std::memcpy(part, p + 16 * full, rest - 16 * full);
      _mm_store_si128(reinterpret_cast<__m128i*>(part),
                      _mm_xor_si128(_mm_load_si128(reinterpret_cast<const __m128i*>(part)),
                                    ks[full]));
      std::memcpy(p + 16 * full, part, rest - 16 * full);
    }
    if (!kOpen) fold_blocks(w, y, h_group, p, rest);
    if (top == blocks) {
      y = reduce(w);
      w = wide_zero();
    } else {
      y = _mm_setzero_si128();
    }
  }
  if (!aad_first && !aad.empty()) {
    fold_blocks(w, _mm_setzero_si128(), h_desc + (15 - blocks - blocks_of(aad.size())),
                aad.data(), aad.size());
  }
  clmul_acc(w, _mm_xor_si128(y, lens), load_block(h_desc[15]));
  // E_K(J0) last in program order, as on kVaesAvx512.
  return make_tag(reduce(w), simd::aesni_encrypt(round_keys, prefix));
}

// kVaesAvx512's last group: the `n` < 256 bytes at `data` on N = ceil(n/64)
// masked registers, which read and write nothing past `n`. The k = ceil(n/16)
// blocks fold against H^(k+1)..H^2 and the length block against H; a
// nonempty `aad` (a blocks, a + k < 16) comes before them, against
// H^(a+k+1)..H^(k+2), so the whole frame pays one reduction. Sixteen blocks
// leave no power for the length block, which then takes a reduction of its
// own. The payload is stored before anything is hashed, so the stores
// retire as soon as the keystream is ready.
template <int N, bool kOpen>
__attribute__((target("vaes,vpclmulqdq,avx512f,avx512bw,pclmul,ssse3"))) inline __m128i
vaes_last_group(const __m512i* rk, __m512i ctr, __m128i y, std::uint8_t* data, std::size_t n,
                const AesBlock* h_desc, BytesView aad, __m128i lens) {
  __m512i ks[N];
  __m512i ct[N];
  simd::vaes_keystream<N>(rk, ctr, ks);
#pragma GCC unroll 4
  for (int i = 0; i < N; ++i) {
    const __mmask64 mask = simd::byte_mask(n - 64 * static_cast<std::size_t>(i));
    const __m512i in = _mm512_maskz_loadu_epi8(mask, data + 64 * i);
    const __m512i out = _mm512_xor_si512(in, ks[i]);
    _mm512_mask_storeu_epi8(data + 64 * i, mask, out);
    ct[i] = kOpen ? in : _mm512_maskz_mov_epi8(mask, out);
  }
  const std::size_t blocks = blocks_of(n);
  const __m128i h1 = load_block(h_desc[15]);
  if (N == 4 && blocks == 16) {
    return gf_mult_clmul(_mm_xor_si128(stitch_pass(y, ct, h_desc), lens), h1);
  }
  // y is multiplied on its own, so only an XMM multiply and the reduction
  // wait for the previous pass.
  const __m128i zero = _mm_setzero_si128();
  WideZ w = wide_zero_z();
  if (!aad.empty()) {
    const std::size_t aad_blocks = blocks_of(aad.size());
    __m512i a[4];
    for (std::size_t r = 0; 4 * r < aad_blocks; ++r) {
      a[r] = _mm512_maskz_loadu_epi8(simd::byte_mask(aad.size() - 64 * r), aad.data() + 64 * r);
    }
    fold_group(w, zero, a, aad_blocks, h_desc + (15 - blocks - aad_blocks));
  }
  fold_group(w, zero, ct, blocks, h_desc + (15 - blocks));
  Wide sum = sum_lanes(w);
  clmul_acc(sum, lens, h1);
  // With the AAD in this group nothing came before it, and y is zero.
  if (aad.empty()) clmul_acc(sum, y, load_block(h_desc[15 - blocks]));
  return reduce(sum);
}

// kVaesAvx512: sixteen blocks per pass in four ZMM registers against
// H^16..H^1 (`h_desc`, highest first), through stitch_pass, which
// ghash_vpclmul also folds the AAD with. A frame of 256 bytes or more, or
// one whose AAD does not fit in its last group, folds the AAD first.
template <bool kOpen>
__attribute__((target("vaes,vpclmulqdq,avx512f,avx512bw,aes,pclmul,ssse3,sse4.1"))) GcmTag
gcm_vaes(const simd::RoundKeys& round_keys, const AesBlock* h_desc, const GcmNonce& nonce,
         std::uint8_t* data, std::size_t n, BytesView aad) {
  __m512i rk[11];
  simd::vaes_round_keys(round_keys, rk);
  const __m128i j0 = load_j0(nonce);
  __m512i ctr = simd::vaes_first_counters(
      _mm_insert_epi32(j0, static_cast<int>(__builtin_bswap32(kFirstCounter)), 3));
  const __m128i lens = length_block_reflected(aad.size(), n);
  const bool aad_first = n == 0 || n >= 256 || blocks_of(aad.size()) + blocks_of(n) >= 16;
  __m128i y = _mm_setzero_si128();
  if (aad_first) y = ghash_vpclmul(y, h_desc, aad.data(), aad.size());
  const BytesView aad_in_last = aad_first ? BytesView{} : aad;

  if (n >= 256) {
    std::size_t done = 0;
    for (; n - done >= 256; done += 256) {
      std::uint8_t* p = data + done;
      __m512i ks[4];
      __m512i in[4];
      simd::vaes_keystream<4>(rk, ctr, ks);
      load_pass(p, in);
      if (kOpen) y = stitch_pass(y, in, h_desc);
#pragma GCC unroll 4
      for (int i = 0; i < 4; ++i) _mm512_storeu_si512(p + 64 * i, _mm512_xor_si512(in[i], ks[i]));
      if (!kOpen && done > 0) {
        __m512i prev[4];
        load_pass(p - 256, prev);
        y = stitch_pass(y, prev, h_desc);
      }
    }
    if (!kOpen) {
      __m512i prev[4];
      load_pass(data + done - 256, prev);
      y = stitch_pass(y, prev, h_desc);
    }
    data += done;
    n -= done;
  }

  switch ((n + 63) / 64) {
    case 4: y = vaes_last_group<4, kOpen>(rk, ctr, y, data, n, h_desc, aad_in_last, lens); break;
    case 3: y = vaes_last_group<3, kOpen>(rk, ctr, y, data, n, h_desc, aad_in_last, lens); break;
    case 2: y = vaes_last_group<2, kOpen>(rk, ctr, y, data, n, h_desc, aad_in_last, lens); break;
    case 1: y = vaes_last_group<1, kOpen>(rk, ctr, y, data, n, h_desc, aad_in_last, lens); break;
    default: y = gf_mult_clmul(_mm_xor_si128(y, lens), load_block(h_desc[15]));
  }
  // E_K(J0) last in program order: it runs beside the payload's rounds
  // without holding back the retirement of the payload's stores.
  return make_tag(y, simd::aesni_encrypt(round_keys, j0));
}
#endif

}  // namespace

AesBlock ghash(const AesBlock& h, BytesView data) {
  AesBlock y{};
  ghash_update(y, h, data);
  return y;
}

GcmSealed gcm_seal(const AesKey& key, const GcmNonce& nonce, BytesView plaintext,
                   BytesView aad) {
  const GcmContext ctx(key);
  return ctx.seal(nonce, plaintext, aad);
}

Result<Bytes> gcm_open(const AesKey& key, const GcmNonce& nonce, BytesView ciphertext,
                       const GcmTag& tag, BytesView aad) {
  const GcmContext ctx(key);
  return ctx.open(nonce, ciphertext, tag, aad);
}

// ----------------------------------------------------------- GcmContext

GcmContext::GcmContext(const AesKey& key, DataplaneKernel kernel) : cipher_(key, kernel) {
  AesBlock h{};
  cipher_.ctr_xor_wide(AesBlock{}, h);  // H = E_K(0^128)
#if defined(__x86_64__)
  if (kernel != DataplaneKernel::kPortable) {
    twisted_powers(h, h_pows_.data(), kernel == DataplaneKernel::kVaesAvx512 ? 16 : 8);
    return;
  }
#endif
  h_pows_.back() = h;
  auto tables = std::make_shared<GhashTables>();
  build_shoup_table(h, tables->hi[0], tables->lo[0]);
  // Higher powers chain through the H^1 table: H^p = H^(p-1) * H.
  for (std::size_t p = 1; p < 4; ++p) {
    h = shoup_mult(*tables, 1, h);
    build_shoup_table(h, tables->hi[p], tables->lo[p]);
  }
  tables_ = std::move(tables);
}

AesBlock GcmContext::h() const {
  AesBlock h = h_pows_.back();
  if (kernel() == DataplaneKernel::kPortable) return h;
  // H * x^-1, reflected: reverse the bytes back and multiply by x.
  std::reverse(h.begin(), h.end());
  return mul_x(h);
}

AesBlock GcmContext::ghash(BytesView data) const {
#if defined(__x86_64__)
  if (kernel() == DataplaneKernel::kVaesAvx512) return ghash_vaes(h_pows_.data(), data);
  if (kernel() == DataplaneKernel::kAesPclmul) return ghash_aesni(h_pows_.data(), data);
#endif
  AesBlock y{};
  ghash_fold_shoup(*tables_, y, data);
  return y;
}

GcmTag GcmContext::compute_tag(const AesBlock& j0, BytesView aad,
                               BytesView ciphertext) const {
  // The length block goes through the same fold as the data.
  const AesBlock lens = length_block(aad.size() * 8, ciphertext.size() * 8);
  GcmTag tag{};
  ghash_fold_shoup(*tables_, tag, aad);
  ghash_fold_shoup(*tables_, tag, ciphertext);
  ghash_fold_shoup(*tables_, tag, lens);
  AesBlock ek_j0{};
  cipher_.ctr_xor_wide(j0, ek_j0);  // E_K(J0) on the cipher's backend
  for (std::size_t i = 0; i < 16; ++i) tag[i] ^= ek_j0[i];
  return tag;
}

#if defined(__x86_64__)
GcmTag GcmContext::fused(bool open, const GcmNonce& nonce, std::span<std::uint8_t> data,
                         BytesView aad) const {
  const simd::RoundKeys& rk = cipher_.round_keys_;
  if (kernel() == DataplaneKernel::kVaesAvx512) {
    return open ? gcm_vaes<true>(rk, h_pows_.data(), nonce, data.data(), data.size(), aad)
                : gcm_vaes<false>(rk, h_pows_.data(), nonce, data.data(), data.size(), aad);
  }
  return open ? gcm_aesni<true>(rk, h_pows_.data(), nonce, data.data(), data.size(), aad)
              : gcm_aesni<false>(rk, h_pows_.data(), nonce, data.data(), data.size(), aad);
}
#endif

GcmTag GcmContext::seal_in_place(const GcmNonce& nonce, std::span<std::uint8_t> data,
                                 BytesView aad) const {
#if defined(__x86_64__)
  if (kernel() != DataplaneKernel::kPortable) return fused(false, nonce, data, aad);
#endif
  const AesBlock j0 = j0_from_nonce(nonce);
  cipher_.ctr_xor_wide(inc32(j0), data);
  return compute_tag(j0, aad, BytesView(data.data(), data.size()));
}

Status GcmContext::open_in_place(const GcmNonce& nonce, std::span<std::uint8_t> data,
                                 const GcmTag& tag, BytesView aad) const {
  // The hardware backends decrypt while they hash; kPortable hashes first.
  bool decrypted = false;
  GcmTag expected{};
#if defined(__x86_64__)
  decrypted = kernel() != DataplaneKernel::kPortable;
  if (decrypted) expected = fused(true, nonce, data, aad);
#endif
  const AesBlock j0 = j0_from_nonce(nonce);
  if (!decrypted) expected = compute_tag(j0, aad, BytesView(data.data(), data.size()));
  const bool match = common::constant_time_equal(BytesView(expected.data(), expected.size()),
                                                 BytesView(tag.data(), tag.size()));
  if (!match) {
    // CTR is its own inverse: one more pass restores the ciphertext.
    if (decrypted) cipher_.ctr_xor_wide(inc32(j0), data);
    return common::decryption_failed("GCM tag mismatch");
  }
  if (!decrypted) cipher_.ctr_xor_wide(inc32(j0), data);
  return Status::success();
}

GcmSealed GcmContext::seal(const GcmNonce& nonce, BytesView plaintext,
                           BytesView aad) const {
  GcmSealed sealed;
  sealed.ciphertext.assign(plaintext.begin(), plaintext.end());
  sealed.tag = seal_in_place(nonce, sealed.ciphertext, aad);
  return sealed;
}

Result<Bytes> GcmContext::open(const GcmNonce& nonce, BytesView ciphertext,
                               const GcmTag& tag, BytesView aad) const {
  Bytes out(ciphertext.begin(), ciphertext.end());
  auto status = open_in_place(nonce, out, tag, aad);
  if (!status.ok()) return status.error();
  return out;
}

}  // namespace genio::crypto
