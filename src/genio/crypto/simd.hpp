// Internal to the crypto module: the x86 SIMD pieces that aes.cpp's CTR
// kernels and gcm.cpp's GHASH and fused AES-GCM kernels share. Every
// function carries its own GCC target attribute (there is no global -march)
// and is called only on a backend CPUID reported (cpu.hpp). Not part of
// the public API.
#pragma once

#if defined(__x86_64__)
#include <immintrin.h>

#include <array>
#include <cstddef>
#include <cstdint>

namespace genio::crypto::simd {

/// The AES-128 key schedule in FIPS-197 byte order, the order aesenc reads
/// its round key in.
using RoundKeys = std::array<std::array<std::uint8_t, 16>, 11>;

/// The first `bytes` of a register's 64 (all of them from 64 up).
inline __mmask64 byte_mask(std::size_t bytes) {
  return bytes >= 64 ? ~__mmask64{0} : (__mmask64{1} << bytes) - 1;
}

/// Reverses the 16 bytes of each 128-bit lane. On a counter block this puts
/// its big-endian counter (bytes 12..15) in dword 0 as a native integer; on
/// a GHASH block it turns GCM's bit order into a 128-bit integer (gcm.cpp).
__attribute__((target("avx512f,avx512bw"))) inline __m512i reverse_lanes(__m512i x) {
  const __m512i reverse =
      _mm512_set_epi64(0x0001020304050607, 0x08090a0b0c0d0e0f, 0x0001020304050607,
                       0x08090a0b0c0d0e0f, 0x0001020304050607, 0x08090a0b0c0d0e0f,
                       0x0001020304050607, 0x08090a0b0c0d0e0f);
  return _mm512_shuffle_epi8(x, reverse);
}

/// One block through AES-NI: its own aesenc chain.
__attribute__((target("aes,sse2"))) inline __m128i aesni_encrypt(const RoundKeys& round_keys,
                                                                 __m128i block) {
  const auto* key = reinterpret_cast<const __m128i*>(round_keys.data());
  block = _mm_xor_si128(block, _mm_loadu_si128(key));
  for (int r = 1; r < 10; ++r) block = _mm_aesenc_si128(block, _mm_loadu_si128(key + r));
  return _mm_aesenclast_si128(block, _mm_loadu_si128(key + 10));
}

/// N AES-NI keystream blocks. Block i is the IV's first 12 bytes (`prefix`)
/// with bswap32(ctr + i) as dword 3, so the counter wraps mod 2^32 like
/// inc32. The N aesenc chains are independent: at N = 8 they cover the
/// instruction's latency.
template <int N>
__attribute__((target("aes,sse4.1"))) inline void aesni_keystream(const __m128i* rk,
                                                                  __m128i prefix,
                                                                  std::uint32_t ctr,
                                                                  __m128i* ks) {
#pragma GCC unroll 8
  for (int i = 0; i < N; ++i) {
    const auto be_ctr = static_cast<int>(__builtin_bswap32(ctr + static_cast<std::uint32_t>(i)));
    ks[i] = _mm_xor_si128(_mm_insert_epi32(prefix, be_ctr, 3), rk[0]);
  }
  for (int r = 1; r < 10; ++r) {
#pragma GCC unroll 8
    for (int i = 0; i < N; ++i) ks[i] = _mm_aesenc_si128(ks[i], rk[r]);
  }
#pragma GCC unroll 8
  for (int i = 0; i < N; ++i) ks[i] = _mm_aesenclast_si128(ks[i], rk[10]);
}

/// N counter blocks XORed from `in` into `out` (16*N bytes, which may
/// alias).
template <int N>
__attribute__((target("aes,sse4.1"))) inline void aesni_ctr_blocks(const __m128i* rk,
                                                                   __m128i prefix,
                                                                   std::uint32_t ctr,
                                                                   const std::uint8_t* in,
                                                                   std::uint8_t* out) {
  __m128i ks[N];
  aesni_keystream<N>(rk, prefix, ctr, ks);
#pragma GCC unroll 8
  for (int i = 0; i < N; ++i) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * i), _mm_xor_si128(x, ks[i]));
  }
}

/// The eleven round keys, each broadcast to the four lanes of a ZMM
/// register. GCC 12 warns (-Wuninitialized, its bug 105593) inside the
/// unmasked _mm512_broadcast_i32x4 and a few other unmasked forms; their
/// _mm512_maskz_* forms with a full mask are the same instructions and
/// compile clean.
__attribute__((target("avx512f"))) inline void vaes_round_keys(const RoundKeys& round_keys,
                                                               __m512i* rk) {
  for (std::size_t r = 0; r < 11; ++r) {
    rk[r] = _mm512_maskz_broadcast_i32x4(
        0xffff, _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys[r].data())));
  }
}

/// The byte-reversed counters of the first register of a CTR run from
/// `iv`: lane i counts from the IV's counter plus i. Held byte-reversed,
/// one vpaddd steps four blocks' counters mod 2^32, as inc32 does, and
/// never carries into the IV prefix.
__attribute__((target("avx512f,avx512bw"))) inline __m512i vaes_first_counters(__m128i iv) {
  const __m512i lane_offsets = _mm512_set_epi32(0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0);
  return _mm512_add_epi32(reverse_lanes(_mm512_maskz_broadcast_i32x4(0xffff, iv)),
                          lane_offsets);
}

/// N registers of VAES keystream, four counter blocks each, from the
/// byte-reversed counters `ctr`, which step past them. One vpshufb per
/// register restores the byte order before the rounds.
template <int N>
__attribute__((target("vaes,avx512f,avx512bw"))) inline void vaes_keystream(const __m512i* rk,
                                                                            __m512i& ctr,
                                                                            __m512i* ks) {
  const __m512i four = _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4);
#pragma GCC unroll 4
  for (int i = 0; i < N; ++i) {
    ks[i] = _mm512_xor_si512(reverse_lanes(ctr), rk[0]);
    ctr = _mm512_add_epi32(ctr, four);
  }
#pragma GCC unroll 9
  for (int r = 1; r < 10; ++r) {
#pragma GCC unroll 4
    for (int i = 0; i < N; ++i) ks[i] = _mm512_aesenc_epi128(ks[i], rk[r]);
  }
#pragma GCC unroll 4
  for (int i = 0; i < N; ++i) ks[i] = _mm512_aesenclast_epi128(ks[i], rk[10]);
}

/// N registers of keystream XORed into the `n` <= 64*N bytes at `data`
/// through masked loads and stores, so nothing past `n` is read or
/// written.
template <int N>
__attribute__((target("vaes,avx512f,avx512bw"))) inline void vaes_ctr_blocks(const __m512i* rk,
                                                                             __m512i& ctr,
                                                                             std::uint8_t* data,
                                                                             std::size_t n) {
  __m512i ks[N];
  vaes_keystream<N>(rk, ctr, ks);
#pragma GCC unroll 4
  for (int i = 0; i < N; ++i) {
    const std::size_t at = 64 * static_cast<std::size_t>(i);
    const __mmask64 mask = byte_mask(n - at);
    const __m512i x = _mm512_maskz_loadu_epi8(mask, data + at);
    _mm512_mask_storeu_epi8(data + at, mask, _mm512_xor_si512(x, ks[i]));
  }
}

}  // namespace genio::crypto::simd

#endif
