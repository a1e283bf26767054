#include "genio/crypto/gcm.hpp"

#include <algorithm>
#include <cstring>
#include <initializer_list>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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
// integers is the 255-bit product with every coefficient one place low, so
// it is shifted left one bit and then reduced modulo
// g = x^128 + x^7 + x^2 + x + 1 in that reflected order.
//
// These are target-attributed functions rather than lambdas: a lambda in a
// target("...") function does not inherit the target, and GCC 12 then
// refuses to inline the intrinsics into it.

__attribute__((target("ssse3"))) inline __m128i load_reflected(const std::uint8_t* p) {
  const __m128i reverse = _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), reverse);
}

__attribute__((target("ssse3"))) inline void store_reflected(std::uint8_t* p, __m128i x) {
  const __m128i reverse = _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm_shuffle_epi8(x, reverse));
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

// Shift the product left one bit and reduce it to 128 bits.
inline __m128i reduce(const Wide& w) {
  __m128i lo = _mm_xor_si128(w.lo, _mm_slli_si128(w.mid, 8));
  __m128i hi = _mm_xor_si128(w.hi, _mm_srli_si128(w.mid, 8));

  // 256-bit shift left by one, 32-bit lane by lane with the carries moved
  // up one lane (and from lo's top lane into hi's bottom lane).
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4)),
                    _mm_srli_si128(lo_carry, 12));

  // Reduction, first phase: fold the low 64 bits' x^1, x^2 and x^7 terms
  // (left shifts by 31, 30 and 25 within each lane) up.
  const __m128i a = _mm_xor_si128(_mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
                                  _mm_slli_epi32(lo, 25));
  const __m128i spill = _mm_srli_si128(a, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(a, 12));
  // Second phase: the right shifts by 1, 2 and 7, plus what the first phase
  // spilled, land in the high half.
  __m128i b = _mm_xor_si128(_mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
                            _mm_srli_epi32(lo, 7));
  b = _mm_xor_si128(b, spill);
  return _mm_xor_si128(hi, _mm_xor_si128(lo, b));
}

__attribute__((target("pclmul"))) inline __m128i gf_mult_clmul(__m128i a, __m128i b) {
  Wide w = wide_zero();
  clmul_acc(w, a, b);
  return reduce(w);
}

// y absorbs `n` bytes at `p`, zero-padded to whole blocks. Groups of four
// blocks fold against H^4..H^1 with one reduction; a last group of k < 4
// blocks folds against H^k..H^1. `h[p - 1]` is H^p, reflected.
__attribute__((target("pclmul,ssse3"))) __m128i ghash_clmul(__m128i y, const __m128i* h,
                                                            const std::uint8_t* p,
                                                            std::size_t n) {
  for (; n >= 64; p += 64, n -= 64) {
    Wide w = wide_zero();
    clmul_acc(w, _mm_xor_si128(y, load_reflected(p)), h[3]);
    clmul_acc(w, load_reflected(p + 16), h[2]);
    clmul_acc(w, load_reflected(p + 32), h[1]);
    clmul_acc(w, load_reflected(p + 48), h[0]);
    y = reduce(w);
  }
  if (n == 0) return y;
  std::uint8_t last[64] = {};
  std::memcpy(last, p, n);
  const std::size_t blocks = (n + 15) / 16;
  Wide w = wide_zero();
  clmul_acc(w, _mm_xor_si128(y, load_reflected(last)), h[blocks - 1]);
  for (std::size_t i = 1; i < blocks; ++i) {
    clmul_acc(w, load_reflected(last + 16 * i), h[blocks - 1 - i]);
  }
  return reduce(w);
}

// H^2..H^count from H = h_pows.back(), stored highest first in GCM byte
// order: h_pows[size - p] = H^p.
__attribute__((target("pclmul,ssse3"))) void h_powers_clmul(std::span<AesBlock> h_pows,
                                                            std::size_t count) {
  const __m128i h = load_reflected(h_pows.back().data());
  __m128i hp = h;
  for (std::size_t p = 2; p <= count; ++p) {
    hp = gf_mult_clmul(hp, h);
    store_reflected(h_pows[h_pows.size() - p].data(), hp);
  }
}

// GHASH over `parts` in turn, each zero-padded to whole blocks, with the
// running hash kept in one register. `h_low` points at H^4, H^3, H^2, H.
__attribute__((target("pclmul,ssse3"))) AesBlock ghash_parts_clmul(
    const AesBlock* h_low, std::initializer_list<BytesView> parts) {
  __m128i h[4];
  for (std::size_t p = 0; p < 4; ++p) h[p] = load_reflected(h_low[3 - p].data());
  __m128i y = _mm_setzero_si128();
  for (const BytesView part : parts) y = ghash_clmul(y, h, part.data(), part.size());
  AesBlock out;
  store_reflected(out.data(), y);
  return out;
}

// -------------------------------------------------- VPCLMULQDQ GHASH
// Sixteen blocks per reduction, four per ZMM register. A pass multiplies
// block j by H^(16-j): with the powers stored highest first, register r's
// powers are the four stored at 4r, and a k-block tail's are the four at
// 16 - k + 4r. Each 128-bit lane is the XMM kernel's reflected block, so
// the lanes' unreduced products XOR into one Wide and the XMM reduce()
// finishes the pass.
//
// GCC 12 warns (-Wuninitialized, its bug 105593) inside the unmasked
// _mm512_broadcast_i32x4, _mm512_extracti32x4_epi32,
// _mm512_extracti64x4_epi64, _mm512_shuffle_i32x4 and
// _mm512_castsi512_si128; their _mm512_maskz_* forms with a full mask are
// the same instructions and compile clean.

__attribute__((target("avx512f,avx512bw"))) inline __m512i reflect_lanes(__m512i x) {
  const __m512i reverse =
      _mm512_set_epi64(0x0001020304050607, 0x08090a0b0c0d0e0f, 0x0001020304050607,
                       0x08090a0b0c0d0e0f, 0x0001020304050607, 0x08090a0b0c0d0e0f,
                       0x0001020304050607, 0x08090a0b0c0d0e0f);
  return _mm512_shuffle_epi8(x, reverse);
}

struct WideZ {
  __m512i lo, mid, hi;
};

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

// The first `bytes` of a register's 64 (all of them from 64 up).
inline __mmask64 byte_mask(std::size_t bytes) {
  return bytes >= 64 ? ~__mmask64{0} : (__mmask64{1} << bytes) - 1;
}

// y absorbs `n` bytes at `p`, zero-padded to whole blocks, sixteen blocks
// per reduction; a last group of k < 16 blocks folds against H^k..H^1
// through masked loads, which read nothing past `n` or past H.
__attribute__((target("vpclmulqdq,avx512f,avx512bw,pclmul,ssse3"))) __m128i ghash_vpclmul(
    __m128i y, const AesBlock* h_desc, const std::uint8_t* p, std::size_t n) {
  if (n >= 256) {
    __m512i h[4];
    for (int r = 0; r < 4; ++r) {
      h[r] = reflect_lanes(_mm512_loadu_si512(h_desc[4 * r].data()));
    }
    // (y ^ B0) * H^16 = y * H^16 ^ B0 * H^16: the sixteen block products
    // and their lane sum do not wait for y, and only one XMM multiply and
    // the reduction stand between one pass's y and the next.
    const __m128i h16 = load_reflected(h_desc[0].data());
    for (; n >= 256; p += 256, n -= 256) {
      WideZ w = {_mm512_setzero_si512(), _mm512_setzero_si512(), _mm512_setzero_si512()};
      clmul_acc_z(w, reflect_lanes(_mm512_loadu_si512(p)), h[0]);
      clmul_acc_z(w, reflect_lanes(_mm512_loadu_si512(p + 64)), h[1]);
      clmul_acc_z(w, reflect_lanes(_mm512_loadu_si512(p + 128)), h[2]);
      clmul_acc_z(w, reflect_lanes(_mm512_loadu_si512(p + 192)), h[3]);
      Wide sum = sum_lanes(w);
      clmul_acc(sum, y, h16);
      y = reduce(sum);
    }
  }
  if (n == 0) return y;
  const std::size_t blocks = (n + 15) / 16;
  const AesBlock* h_tail = h_desc + (16 - blocks);
  WideZ w = {_mm512_setzero_si512(), _mm512_setzero_si512(), _mm512_setzero_si512()};
  for (std::size_t r = 0; 4 * r < blocks; ++r) {
    const std::size_t lanes = std::min<std::size_t>(4, blocks - 4 * r);
    const auto lane_mask = static_cast<__mmask8>((1u << (2 * lanes)) - 1);
    __m512i d = reflect_lanes(_mm512_maskz_loadu_epi8(byte_mask(n - 64 * r), p + 64 * r));
    if (r == 0) d = _mm512_xor_si512(d, _mm512_maskz_broadcast_i32x4(0x000f, y));
    clmul_acc_z(w, d, reflect_lanes(_mm512_maskz_loadu_epi64(lane_mask, h_tail[4 * r].data())));
  }
  return reduce(sum_lanes(w));
}

__attribute__((target("vpclmulqdq,avx512f,avx512bw,pclmul,ssse3"))) AesBlock ghash_parts_vpclmul(
    const AesBlock* h_desc, std::initializer_list<BytesView> parts) {
  __m128i y = _mm_setzero_si128();
  for (const BytesView part : parts) y = ghash_vpclmul(y, h_desc, part.data(), part.size());
  AesBlock out;
  store_reflected(out.data(), y);
  return out;
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
  cipher_.ctr_xor_wide(AesBlock{}, h_pows_.back());  // H = E_K(0^128)
#if defined(__x86_64__)
  if (kernel != DataplaneKernel::kPortable) {
    h_powers_clmul(h_pows_, static_cast<std::size_t>(h_powers()));
    return;
  }
#endif
  auto tables = std::make_shared<GhashTables>();
  build_shoup_table(h(), tables->hi[0], tables->lo[0]);
  // Higher powers chain through the H^1 table: H^p = H^(p-1) * H.
  for (int p = 2; p <= 4; ++p) {
    const auto t = static_cast<std::size_t>(p - 1);
    h_pows_[static_cast<std::size_t>(kMaxHPowers - p)] = shoup_mult(*tables, 1, h_pow(p - 1));
    build_shoup_table(h_pow(p), tables->hi[t], tables->lo[t]);
  }
  tables_ = std::move(tables);
}

AesBlock GcmContext::ghash(BytesView data) const { return ghash_parts({data}); }

AesBlock GcmContext::ghash_parts(std::initializer_list<BytesView> parts) const {
#if defined(__x86_64__)
  if (kernel() == DataplaneKernel::kVaesAvx512) return ghash_parts_vpclmul(h_pows_.data(), parts);
  if (kernel() == DataplaneKernel::kAesPclmul) return ghash_parts_clmul(&h_pow(4), parts);
#endif
  AesBlock y{};
  for (const BytesView part : parts) ghash_fold_shoup(*tables_, y, part);
  return y;
}

GcmTag GcmContext::compute_tag(const AesBlock& j0, BytesView aad,
                               BytesView ciphertext) const {
  // The length block goes through the same fold as the data.
  const AesBlock lens = length_block(aad.size() * 8, ciphertext.size() * 8);
  GcmTag tag = ghash_parts({aad, ciphertext, lens});
  AesBlock ek_j0{};
  cipher_.ctr_xor_wide(j0, ek_j0);  // E_K(J0) on the cipher's backend
  for (std::size_t i = 0; i < 16; ++i) tag[i] ^= ek_j0[i];
  return tag;
}

GcmTag GcmContext::seal_in_place(const GcmNonce& nonce, std::span<std::uint8_t> data,
                                 BytesView aad) const {
  const AesBlock j0 = j0_from_nonce(nonce);
  cipher_.ctr_xor_wide(inc32(j0), data);
  return compute_tag(j0, aad, BytesView(data.data(), data.size()));
}

Status GcmContext::open_in_place(const GcmNonce& nonce, std::span<std::uint8_t> data,
                                 const GcmTag& tag, BytesView aad) const {
  const AesBlock j0 = j0_from_nonce(nonce);
  const GcmTag expected = compute_tag(j0, aad, BytesView(data.data(), data.size()));
  if (!common::constant_time_equal(BytesView(expected.data(), expected.size()),
                                   BytesView(tag.data(), tag.size()))) {
    return common::decryption_failed("GCM tag mismatch");
  }
  cipher_.ctr_xor_wide(inc32(j0), data);
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
