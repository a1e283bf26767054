#include "genio/crypto/aes.hpp"

#include <cstring>
#include <stdexcept>

#include "genio/crypto/simd.hpp"

namespace genio::crypto {

namespace {

constexpr std::array<std::uint8_t, 256> kSBox = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::array<std::uint8_t, 11> kRcon = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                                0x20, 0x40, 0x80, 0x1b, 0x36};

inline std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

// Encryption T-tables: Te0[b] packs SubBytes + MixColumns for one input
// byte — (2*S[b], S[b], S[b], 3*S[b]) big-endian — and Te1..Te3 are its
// byte rotations, so one full round of a column is four lookups and four
// XORs. Key-independent, built once per process.
struct EncTables {
  std::array<std::uint32_t, 256> te0{}, te1{}, te2{}, te3{};
};

const EncTables& enc_tables() {
  static const EncTables kTables = [] {
    EncTables t;
    for (unsigned i = 0; i < 256; ++i) {
      const std::uint8_t s = kSBox[i];
      const std::uint8_t s2 = xtime(s);
      const std::uint32_t w = (static_cast<std::uint32_t>(s2) << 24) |
                              (static_cast<std::uint32_t>(s) << 16) |
                              (static_cast<std::uint32_t>(s) << 8) |
                              static_cast<std::uint32_t>(s ^ s2);
      t.te0[i] = w;
      t.te1[i] = (w >> 8) | (w << 24);
      t.te2[i] = (w >> 16) | (w << 16);
      t.te3[i] = (w >> 24) | (w << 8);
    }
    return t;
  }();
  return kTables;
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

#if defined(__x86_64__)
// AES-NI CTR: eight blocks per pass, then one four-block pass, then a tail
// of under 64 bytes through a zero-padded copy.
__attribute__((target("aes,sse4.1"))) void ctr_xor_aesni(const simd::RoundKeys& round_keys,
                                                         const AesBlock& iv, std::uint8_t* data,
                                                         std::size_t n) {
  __m128i rk[11];
  for (std::size_t r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys[r].data()));
  }
  const __m128i prefix = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv.data()));
  std::uint32_t ctr = load_be32(iv.data() + 12);
  for (; n >= 128; data += 128, n -= 128, ctr += 8) {
    simd::aesni_ctr_blocks<8>(rk, prefix, ctr, data, data);
  }
  if (n >= 64) {
    simd::aesni_ctr_blocks<4>(rk, prefix, ctr, data, data);
    data += 64;
    n -= 64;
    ctr += 4;
  }
  if (n == 0) return;
  std::uint8_t tail[64] = {};
  std::memcpy(tail, data, n);
  if (n > 16) {
    simd::aesni_ctr_blocks<4>(rk, prefix, ctr, tail, tail);
  } else {
    simd::aesni_ctr_blocks<1>(rk, prefix, ctr, tail, tail);
  }
  std::memcpy(data, tail, n);
}

// VAES CTR: sixteen blocks per pass in four ZMM registers, then a tail of
// under 256 bytes on as many masked registers as it needs.
__attribute__((target("vaes,avx512f,avx512bw"))) void ctr_xor_vaes(
    const simd::RoundKeys& round_keys, const AesBlock& iv, std::uint8_t* data, std::size_t n) {
  __m512i rk[11];
  simd::vaes_round_keys(round_keys, rk);
  __m512i ctr =
      simd::vaes_first_counters(_mm_loadu_si128(reinterpret_cast<const __m128i*>(iv.data())));
  for (; n >= 256; data += 256, n -= 256) simd::vaes_ctr_blocks<4>(rk, ctr, data, 256);
  switch ((n + 63) / 64) {
    case 4: simd::vaes_ctr_blocks<4>(rk, ctr, data, n); break;
    case 3: simd::vaes_ctr_blocks<3>(rk, ctr, data, n); break;
    case 2: simd::vaes_ctr_blocks<2>(rk, ctr, data, n); break;
    case 1: simd::vaes_ctr_blocks<1>(rk, ctr, data, n); break;
    default: break;
  }
}
#endif

}  // namespace

Aes128::Aes128(const AesKey& key, DataplaneKernel kernel) : kernel_(kernel) {
  if (!supports_dataplane_kernel(kernel)) {
    throw std::invalid_argument("AES: this CPU lacks the requested data-plane backend");
  }
  // Key expansion (AES-128: 11 round keys of 16 bytes).
  std::array<std::uint8_t, 176> w;
  std::memcpy(w.data(), key.data(), 16);
  for (int i = 16; i < 176; i += 4) {
    std::uint8_t temp[4];
    std::memcpy(temp, &w[i - 4], 4);
    if (i % 16 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSBox[temp[1]] ^ kRcon[i / 16]);
      temp[1] = kSBox[temp[2]];
      temp[2] = kSBox[temp[3]];
      temp[3] = kSBox[t0];
    }
    for (int j = 0; j < 4; ++j) {
      w[i + j] = static_cast<std::uint8_t>(w[i - 16 + j] ^ temp[j]);
    }
  }
  for (int r = 0; r < 11; ++r) {
    std::memcpy(round_keys_[r].data(), &w[16 * r], 16);
    for (int j = 0; j < 4; ++j) {
      rk_words_[static_cast<std::size_t>(4 * r + j)] =
          load_be32(round_keys_[r].data() + 4 * j);
    }
  }
}

AesBlock Aes128::encrypt_block(const AesBlock& plaintext) const {
  AesBlock s = plaintext;

  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[round][i];
  };
  auto sub_bytes = [&] {
    for (auto& b : s) b = kSBox[b];
  };
  auto shift_rows = [&] {
    // State is column-major: s[col*4 + row].
    AesBlock t = s;
    for (int row = 1; row < 4; ++row) {
      for (int col = 0; col < 4; ++col) {
        s[col * 4 + row] = t[((col + row) % 4) * 4 + row];
      }
    }
  };
  auto mix_columns = [&] {
    for (int col = 0; col < 4; ++col) {
      std::uint8_t* c = &s[col * 4];
      const std::uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
      c[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
      c[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
      c[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
      c[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
    }
  };

  add_round_key(0);
  for (int round = 1; round < 10; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);
  return s;
}

void Aes128::ctr_xor_in_place(const AesBlock& iv, std::span<std::uint8_t> data) const {
  AesBlock counter = iv;
  std::size_t offset = 0;
  while (offset < data.size()) {
    const AesBlock keystream = encrypt_block(counter);
    const std::size_t n = std::min<std::size_t>(16, data.size() - offset);
    for (std::size_t i = 0; i < n; ++i) data[offset + i] ^= keystream[i];
    offset += n;
    // Increment the trailing 32-bit big-endian counter.
    for (int i = 15; i >= 12; --i) {
      if (++counter[static_cast<std::size_t>(i)] != 0) break;
    }
  }
}

void Aes128::ctr_xor_wide(const AesBlock& iv, std::span<std::uint8_t> data) const {
#if defined(__x86_64__)
  if (kernel_ == DataplaneKernel::kVaesAvx512) {
    ctr_xor_vaes(round_keys_, iv, data.data(), data.size());
    return;
  }
  if (kernel_ == DataplaneKernel::kAesPclmul) {
    ctr_xor_aesni(round_keys_, iv, data.data(), data.size());
    return;
  }
#endif
  constexpr std::size_t kWide = 4;        // blocks generated per pass
  constexpr std::size_t kWideBytes = 16 * kWide;

  const EncTables& T = enc_tables();
  const std::uint32_t* rk = rk_words_.data();
  // GCM-style counter block: 12 fixed prefix bytes plus a trailing 32-bit
  // big-endian counter that wraps mod 2^32 (matching inc32 / the
  // single-block path's increment).
  const std::uint32_t c0 = load_be32(iv.data());
  const std::uint32_t c1 = load_be32(iv.data() + 4);
  const std::uint32_t c2 = load_be32(iv.data() + 8);
  std::uint32_t ctr = load_be32(iv.data() + 12);

  std::size_t offset = 0;
  while (data.size() - offset >= kWideBytes) {
    std::uint32_t a[4 * kWide];
    std::uint32_t b[4 * kWide];
    for (std::size_t blk = 0; blk < kWide; ++blk) {
      a[4 * blk + 0] = c0 ^ rk[0];
      a[4 * blk + 1] = c1 ^ rk[1];
      a[4 * blk + 2] = c2 ^ rk[2];
      a[4 * blk + 3] = (ctr + static_cast<std::uint32_t>(blk)) ^ rk[3];
    }
    std::uint32_t* cur = a;
    std::uint32_t* nxt = b;
    for (int round = 1; round < 10; ++round) {
      const std::uint32_t* k = &rk[4 * round];
      for (std::size_t blk = 0; blk < kWide; ++blk) {
        const std::uint32_t* x = &cur[4 * blk];
        std::uint32_t* y = &nxt[4 * blk];
        y[0] = T.te0[x[0] >> 24] ^ T.te1[(x[1] >> 16) & 0xff] ^
               T.te2[(x[2] >> 8) & 0xff] ^ T.te3[x[3] & 0xff] ^ k[0];
        y[1] = T.te0[x[1] >> 24] ^ T.te1[(x[2] >> 16) & 0xff] ^
               T.te2[(x[3] >> 8) & 0xff] ^ T.te3[x[0] & 0xff] ^ k[1];
        y[2] = T.te0[x[2] >> 24] ^ T.te1[(x[3] >> 16) & 0xff] ^
               T.te2[(x[0] >> 8) & 0xff] ^ T.te3[x[1] & 0xff] ^ k[2];
        y[3] = T.te0[x[3] >> 24] ^ T.te1[(x[0] >> 16) & 0xff] ^
               T.te2[(x[1] >> 8) & 0xff] ^ T.te3[x[2] & 0xff] ^ k[3];
      }
      std::uint32_t* tmp = cur;
      cur = nxt;
      nxt = tmp;
    }
    // Final round (SubBytes + ShiftRows, no MixColumns), XORed straight
    // into the data as keystream.
    const std::uint32_t* k = &rk[40];
    std::uint8_t* out = data.data() + offset;
    for (std::size_t blk = 0; blk < kWide; ++blk) {
      const std::uint32_t* x = &cur[4 * blk];
      for (std::size_t j = 0; j < 4; ++j) {
        const std::uint32_t w =
            ((static_cast<std::uint32_t>(kSBox[x[j] >> 24]) << 24) |
             (static_cast<std::uint32_t>(kSBox[(x[(j + 1) & 3] >> 16) & 0xff]) << 16) |
             (static_cast<std::uint32_t>(kSBox[(x[(j + 2) & 3] >> 8) & 0xff]) << 8) |
             static_cast<std::uint32_t>(kSBox[x[(j + 3) & 3] & 0xff])) ^
            k[j];
        std::uint8_t* p = out + 16 * blk + 4 * j;
        p[0] ^= static_cast<std::uint8_t>(w >> 24);
        p[1] ^= static_cast<std::uint8_t>(w >> 16);
        p[2] ^= static_cast<std::uint8_t>(w >> 8);
        p[3] ^= static_cast<std::uint8_t>(w);
      }
    }
    ctr += static_cast<std::uint32_t>(kWide);
    offset += kWideBytes;
  }

  if (offset < data.size()) {
    AesBlock tail_iv = iv;
    for (int i = 0; i < 4; ++i) {
      tail_iv[static_cast<std::size_t>(12 + i)] =
          static_cast<std::uint8_t>(ctr >> (24 - 8 * i));
    }
    ctr_xor_in_place(tail_iv, data.subspan(offset));
  }
}

Bytes aes128_ctr(const AesKey& key, const AesBlock& iv, BytesView data) {
  const Aes128 cipher(key);
  Bytes out(data.begin(), data.end());
  cipher.ctr_xor_in_place(iv, out);
  return out;
}

AesKey make_aes_key(BytesView bytes) {
  if (bytes.size() != 16) throw std::invalid_argument("AES-128 key must be 16 bytes");
  AesKey key;
  std::memcpy(key.data(), bytes.data(), 16);
  return key;
}

}  // namespace genio::crypto
